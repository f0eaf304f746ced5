(* Chrome trace_event ("catapult") JSON, loadable in Perfetto / about:tracing.
   Simulated time is nanoseconds; trace_event wants microseconds in [ts]/
   [dur], so we divide by 1e3 and keep the fraction. Tracks: one "process"
   per (run, kernel) pair so repeated boots sharing a recorder don't overlap,
   one "thread" row per simulated tid (row 0 for kernel-level spans).

   Every span event also carries exact-nanosecond [start_ns]/[stop_ns] args
   (plus ids, offset-adjusted run and parent links) so `popcornsim analyze`
   can reconstruct the span forest from the trace file without precision
   loss. Messages are drawn as bare flow events in cat "causal"; the causal
   log itself rides once, as the document's flat "causal" member. *)

let us ns = float_of_int ns /. 1_000.

let pid_of_kernel ~run_offset ~run ~kernel = ((run_offset + run) * 100) + kernel
let pid_of ~run_offset (s : Span.span) =
  pid_of_kernel ~run_offset ~run:s.run ~kernel:s.kernel

let span_event ~run_offset ~run_end (s : Span.span) =
  (* An unclosed span (the workload never finished it) is clamped to the
     end of its run so it renders — and analyzes — as "open until the end"
     rather than as a zero-width sliver at its start. *)
  let stop = if s.stop < 0 then Stdlib.max s.start (run_end s.run) else s.stop in
  let args =
    [ ("span_id", Json.Int s.id); ("kernel", Json.Int s.kernel);
      ("run", Json.Int (run_offset + s.run));
      ("start_ns", Json.Int s.start); ("stop_ns", Json.Int stop) ]
    @ (if s.stop < 0 then [ ("unclosed", Json.Bool true) ] else [])
    @ (match s.parent with
      | None -> []
      | Some p -> [ ("parent", Json.Int p) ])
    @ match s.tid with None -> [] | Some t -> [ ("sim_tid", Json.Int t) ]
  in
  Json.Obj
    [
      ("name", Json.Str (Span.kind_name s.kind));
      ("cat", Json.Str "span");
      ("ph", Json.Str "X");
      ("ts", Json.Float (us s.start));
      ("dur", Json.Float (us (stop - s.start)));
      ("pid", Json.Int (pid_of ~run_offset s));
      ("tid", Json.Int (match s.tid with None -> 0 | Some t -> t + 1));
      ("args", Json.Obj args);
    ]

let process_meta ~pid name =
  Json.Obj
    [
      ("name", Json.Str "process_name");
      ("ph", Json.Str "M");
      ("pid", Json.Int pid);
      ("args", Json.Obj [ ("name", Json.Str name) ]);
    ]

let trace_event (e : Sim.Trace.event) =
  Json.Obj
    [
      ("name", Json.Str e.msg);
      ("cat", Json.Str e.cat);
      ("ph", Json.Str "i");
      ("s", Json.Str "g");
      ("ts", Json.Float (us e.at));
      ("pid", Json.Int 0);
      ("tid", Json.Int 0);
    ]

(* Flow-event id: unique per (run, message) within one export. *)
let flow_id ~run_offset ~run id = (((run_offset + run) * 1_000_000) + id)

(* A message as a viewer arrow from the sending to the delivering track:
   only the fields the viewer draws. The causal record itself rides once,
   in the document's "causal" member; link records have no arrow. *)
let flow_event ~run_offset ~run ~id ~at ~kernel ~finish =
  let rest =
    [
      ("id", Json.Int (flow_id ~run_offset ~run id));
      ("ts", Json.Float (us at));
      ("pid", Json.Int (pid_of_kernel ~run_offset ~run ~kernel));
      ("tid", Json.Int 0);
    ]
  in
  Json.Obj
    (("name", Json.Str "msg") :: ("cat", Json.Str "causal")
    ::
    (if finish then ("ph", Json.Str "f") :: ("bp", Json.Str "e") :: rest
     else ("ph", Json.Str "s") :: rest))

let causal_event ~run_offset (e : Causal.event) =
  match e with
  | Causal.Send { id; run; src; at; _ } ->
      Some (flow_event ~run_offset ~run ~id ~at ~kernel:src ~finish:false)
  | Causal.Deliver { id; run; dst; at } ->
      Some (flow_event ~run_offset ~run ~id ~at ~kernel:dst ~finish:true)
  | Causal.Link _ -> None

let event_run : Causal.event -> int = function
  | Causal.Send { run; _ } | Causal.Deliver { run; _ } | Causal.Link { run; _ }
    ->
      run

(* Causal recorders pair positionally with span recorders: a sink holds one
   of each, with the same run numbering. *)
let rec pair spans causal =
  match (spans, causal) with
  | [], [] -> []
  | s :: st, c :: ct -> (Some s, Some c) :: pair st ct
  | s :: st, [] -> (Some s, None) :: pair st []
  | [], c :: ct -> (None, Some c) :: pair [] ct

let chrome_trace ?(spans = []) ?(causal = []) ?(traces = []) () =
  let events = ref [] in
  let push e = events := e :: !events in
  if traces <> [] then push (process_meta ~pid:0 "trace ring");
  (* Each recorder pair owns the runs from its offset to its offset plus
     the last run its spans or messages mention; the next pair starts
     after that, so tracks, span runs and causal runs never collide. *)
  let _, placed =
    List.fold_left
      (fun (off, acc) (sp, c) ->
        let spans = match sp with Some r -> Span.spans r | None -> [] in
        let causal = match c with Some c -> Causal.events c | None -> [] in
        let last =
          List.fold_left
            (fun m (s : Span.span) -> Stdlib.max m s.run)
            (-1) spans
        in
        let last =
          List.fold_left (fun m e -> Stdlib.max m (event_run e)) last causal
        in
        (off + last + 1, (off, spans, c, causal) :: acc))
      (0, []) (pair spans causal)
  in
  let placed = List.rev placed in
  List.iter
    (fun (run_offset, spans, _, _) ->
      let seen_pids = Hashtbl.create 8 in
      (* End-of-run timestamps for clamping unclosed spans. *)
      let run_ends = Hashtbl.create 4 in
      List.iter
        (fun (s : Span.span) ->
          let upper = Stdlib.max s.start s.stop in
          let cur =
            Option.value (Hashtbl.find_opt run_ends s.run) ~default:0
          in
          Hashtbl.replace run_ends s.run (Stdlib.max cur upper))
        spans;
      let run_end r = Option.value (Hashtbl.find_opt run_ends r) ~default:0 in
      List.iter
        (fun (s : Span.span) ->
          let pid = pid_of ~run_offset s in
          if not (Hashtbl.mem seen_pids pid) then begin
            Hashtbl.add seen_pids pid ();
            push
              (process_meta ~pid
                 (Printf.sprintf "run %d / kernel %d" (run_offset + s.run)
                    s.kernel))
          end;
          push (span_event ~run_offset ~run_end s))
        spans)
    placed;
  List.iter
    (fun (run_offset, _, _, causal) ->
      List.iter
        (fun e -> Option.iter push (causal_event ~run_offset e))
        causal)
    placed;
  List.iter
    (fun tr -> List.iter (fun e -> push (trace_event e)) (Sim.Trace.events tr))
    traces;
  let causal =
    List.filter_map
      (fun (off, _, c, _) -> Option.map (fun c -> (c, off)) c)
      placed
  in
  Json.Obj
    ([
       ("traceEvents", Json.Arr (List.rev !events));
       ("displayTimeUnit", Json.Str "ns");
     ]
    @ if causal = [] then [] else [ ("causal", Causal.merged_json causal) ])
