(* Tests for causal tracing (lib/obs/causal), critical-path analysis
   (lib/obs/critpath), the analyze/diff reports (lib/obs/report), the JSON
   parser, and the trace-ring retained counter. *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let member k = function Obs.Json.Obj fs -> List.assoc_opt k fs | _ -> None

let trace_events doc =
  match member "traceEvents" doc with
  | Some (Obs.Json.Arr l) -> l
  | _ -> Alcotest.fail "traceEvents must be an array"

(* Same shape as test_obs's workload, with the causal recorder attached:
   two threads, each migrating once between two kernels. *)
let run_workload ~sink ~seed () =
  let machine = Hw.Machine.create ~seed ~sockets:1 ~cores_per_socket:4 () in
  let cluster = Popcorn.Cluster.boot machine ~kernels:2 ~cores_per_kernel:2 in
  let (s : Obs.Sink.t) = sink in
  Hw.Machine.attach_obs machine ~metrics:s.Obs.Sink.metrics
    ~spans:s.Obs.Sink.spans ~causal:s.Obs.Sink.causal ();
  Popcorn.Cluster.observe ~metrics:s.Obs.Sink.metrics
    ~tracer:s.Obs.Sink.trace cluster;
  let eng = machine.Hw.Machine.eng in
  Sim.Engine.spawn eng (fun () ->
      let proc =
        Popcorn.Api.start_process cluster ~origin:0 (fun th ->
            let latch = Workloads.Latch.create eng 2 in
            for i = 0 to 1 do
              ignore
                (Popcorn.Api.spawn th ~target:(i mod 2) (fun worker ->
                     Popcorn.Api.compute worker (Sim.Time.us 20);
                     ignore (Popcorn.Api.migrate worker ~dst:((i + 1) mod 2));
                     Popcorn.Api.compute worker (Sim.Time.us 20);
                     Workloads.Latch.arrive latch))
            done;
            Workloads.Latch.wait latch)
      in
      Popcorn.Api.wait_exit cluster proc);
  Sim.Engine.run eng;
  Sim.Engine.now eng

(* --- causal event log: shape and determinism --- *)

let test_causal_dag_shape () =
  let sink = Obs.Sink.create () in
  ignore (run_workload ~sink ~seed:42 ());
  let events = Obs.Causal.events sink.Obs.Sink.causal in
  let sends = Hashtbl.create 64 in
  List.iter
    (fun (e : Obs.Causal.event) ->
      match e with
      | Obs.Causal.Send { id; run; at; _ } -> Hashtbl.replace sends (run, id) at
      | _ -> ())
    events;
  Alcotest.(check bool) "messages were recorded" true (Hashtbl.length sends > 0);
  (* Every delivery matches an earlier send; fault-free fabric loses none. *)
  let delivers = ref 0 in
  List.iter
    (fun (e : Obs.Causal.event) ->
      match e with
      | Obs.Causal.Deliver { id; run; at; _ } -> (
          incr delivers;
          match Hashtbl.find_opt sends (run, id) with
          | Some send_at ->
              Alcotest.(check bool) "deliver after send" true (at >= send_at)
          | None -> Alcotest.fail "delivery without a matching send")
      | _ -> ())
    events;
  Alcotest.(check int) "nothing lost" (Hashtbl.length sends) !delivers;
  (* The cross-kernel chain exists: each Import span is linked to a message
     that was sent from a Transfer span. *)
  let spans = Obs.Span.spans sink.Obs.Sink.spans in
  let kind_of_sid = Hashtbl.create 64 in
  List.iter
    (fun (s : Obs.Span.span) ->
      Hashtbl.replace kind_of_sid (s.Obs.Span.run, s.Obs.Span.id)
        (Obs.Span.kind_name s.Obs.Span.kind))
    spans;
  let send_from = Hashtbl.create 64 in
  List.iter
    (fun (e : Obs.Causal.event) ->
      match e with
      | Obs.Causal.Send { id; run; from_span = Some sp; _ } ->
          Hashtbl.replace send_from (run, id) sp
      | _ -> ())
    events;
  let import_links =
    List.filter
      (fun (e : Obs.Causal.event) ->
        match e with
        | Obs.Causal.Link { id; run; span } -> (
            Hashtbl.find_opt kind_of_sid (run, span) = Some "import"
            &&
            match Hashtbl.find_opt send_from (run, id) with
            | Some sender ->
                Hashtbl.find_opt kind_of_sid (run, sender) = Some "transfer"
            | None -> false)
        | _ -> false)
      events
  in
  Alcotest.(check int) "transfer -> wire -> import chain per migration" 2
    (List.length import_links)

let test_causal_deterministic () =
  let once () =
    let sink = Obs.Sink.create () in
    ignore (run_workload ~sink ~seed:7 ());
    ( Obs.Json.to_string (Obs.Causal.to_json sink.Obs.Sink.causal),
      Obs.Json.to_string
        (Obs.Critpath.ispans_to_json
           (Obs.Critpath.ispans_of_recorder sink.Obs.Sink.spans)) )
  in
  let c1, s1 = once () in
  let c2, s2 = once () in
  Alcotest.(check string) "causal log reproducible" c1 c2;
  Alcotest.(check string) "span forest reproducible" s1 s2

let test_causal_json_roundtrip () =
  let sink = Obs.Sink.create () in
  ignore (run_workload ~sink ~seed:11 ());
  let events = Obs.Causal.events sink.Obs.Sink.causal in
  let decoded =
    Obs.Causal.events_of_json (Obs.Causal.to_json sink.Obs.Sink.causal)
  in
  Alcotest.(check int) "all events decode" (List.length events)
    (List.length decoded);
  Alcotest.(check bool) "roundtrip is the identity" true (events = decoded)

(* --- critical path of a hand-built 3-kernel migration --- *)

let ispan ?parent ?tid ~sid ~kind ~kernel ~start ~stop () =
  { Obs.Critpath.sid; parent; kind; kernel; tid; run = 0; start; stop }

let test_critical_path_known_chain () =
  (* Migration k0 -> k2 with a forwarding hop on k1 (three kernels on the
     causal chain). Known longest chain covers the whole root window. *)
  let root = ispan ~sid:0 ~kind:"migration" ~kernel:0 ~start:0 ~stop:1000 () in
  let spans =
    [
      root;
      ispan ~sid:1 ~parent:0 ~kind:"context_capture" ~kernel:0 ~start:0
        ~stop:200 ();
      ispan ~sid:2 ~parent:0 ~kind:"transfer" ~kernel:0 ~start:200 ~stop:800 ();
      ispan ~sid:3 ~kind:"forward" ~kernel:1 ~start:400 ~stop:450 ();
      ispan ~sid:4 ~kind:"import" ~kernel:2 ~start:550 ~stop:700 ();
      ispan ~sid:5 ~parent:0 ~kind:"resume" ~kernel:2 ~start:800 ~stop:950 ();
      (* An unrelated concurrent span must not appear in the path. *)
      ispan ~sid:6 ~kind:"page_fault" ~kernel:3 ~start:100 ~stop:900 ();
    ]
  in
  let causal =
    [
      Obs.Causal.Send
        { id = 1; run = 0; src = 0; dst = 1; at = 250; bytes = 64;
          from_span = Some 2 };
      Obs.Causal.Deliver { id = 1; run = 0; dst = 1; at = 400 };
      Obs.Causal.Link { id = 1; run = 0; span = 3 };
      Obs.Causal.Send
        { id = 2; run = 0; src = 1; dst = 2; at = 450; bytes = 64;
          from_span = Some 3 };
      Obs.Causal.Deliver { id = 2; run = 0; dst = 2; at = 550 };
      Obs.Causal.Link { id = 2; run = 0; span = 4 };
      Obs.Causal.Send
        { id = 3; run = 0; src = 2; dst = 0; at = 700; bytes = 32;
          from_span = Some 4 };
      Obs.Causal.Deliver { id = 3; run = 0; dst = 0; at = 800 };
    ]
  in
  let ix = Obs.Critpath.build_index ~spans ~causal in
  let p = Obs.Critpath.critical_path ix ~root in
  Alcotest.(check int) "total is the root duration" 1000 p.Obs.Critpath.total_ns;
  let segs =
    List.map
      (fun (s : Obs.Critpath.seg) ->
        (s.Obs.Critpath.label, s.Obs.Critpath.seg_start, s.Obs.Critpath.seg_stop))
      p.Obs.Critpath.segs
  in
  Alcotest.(check (list (triple string int int)))
    "known longest chain"
    [
      ("context_capture@k0", 0, 200);
      ("transfer@k0", 200, 250);
      ("wire k0->k1", 250, 400);
      ("forward@k1", 400, 450);
      ("wire k1->k2", 450, 550);
      ("import@k2", 550, 700);
      ("wire k2->k0", 700, 800);
      ("resume@k2", 800, 950);
      ("migration@k0", 950, 1000);
    ]
    segs;
  let sum =
    List.fold_left (fun a (_, s, e) -> a + e - s) 0 segs
  in
  Alcotest.(check int) "segments sum exactly to end-to-end latency" 1000 sum

let test_critical_path_of_real_run () =
  (* On a live run, every migration's critical path must partition its
     window exactly (the sum-exact acceptance property). *)
  let sink = Obs.Sink.create () in
  ignore (run_workload ~sink ~seed:42 ());
  let spans = Obs.Critpath.ispans_of_recorder sink.Obs.Sink.spans in
  let causal = Obs.Causal.events sink.Obs.Sink.causal in
  let ix = Obs.Critpath.build_index ~spans ~causal in
  let roots = Obs.Critpath.roots ix ~kind:"migration" in
  Alcotest.(check int) "two migrations analyzed" 2 (List.length roots);
  List.iter
    (fun root ->
      let p = Obs.Critpath.critical_path ix ~root in
      let sum =
        List.fold_left
          (fun a (s : Obs.Critpath.seg) ->
            a + s.Obs.Critpath.seg_stop - s.Obs.Critpath.seg_start)
          0 p.Obs.Critpath.segs
      in
      Alcotest.(check int) "segments sum to migration latency"
        p.Obs.Critpath.total_ns sum;
      Alcotest.(check bool) "path crosses the wire" true
        (List.exists (fun (s : Obs.Critpath.seg) -> s.Obs.Critpath.on_wire)
           p.Obs.Critpath.segs))
    roots

(* Observed quick runs of F6 and R4, shared by every test that needs a
   real trace (R4 leaves spans open and loses messages). *)
let observed =
  List.map
    (fun id ->
      ( id,
        lazy
          (let e =
             match Experiments.Registry.find id with
             | Some e -> e
             | None -> Alcotest.failf "%s not registered" id
           in
           Experiments.Registry.run_one ~quick:true ~observe:true e) ))
    [ "F6"; "R4" ]

let observed_outcome id = Lazy.force (List.assoc id observed)
let observed_sink id = Option.get (observed_outcome id).Experiments.Registry.sink

(* The selection shortcut behind Slo and analyze: a root's latency is its
   clamped window, so ranking roots needs no critical path. Guarded on
   every migration and remote thread creation of two observed runs. *)
let test_duration_is_path_total () =
  List.iter
    (fun id ->
      let sink = observed_sink id in
      let ix =
        Obs.Critpath.build_index
          ~spans:(Obs.Critpath.ispans_of_recorder sink.Obs.Sink.spans)
          ~causal:(Obs.Causal.events sink.Obs.Sink.causal)
      in
      let checked = ref 0 in
      List.iter
        (fun kind ->
          List.iter
            (fun root ->
              incr checked;
              let p = Obs.Critpath.critical_path ix ~root in
              let d = Obs.Critpath.duration ix root in
              if d <> p.Obs.Critpath.total_ns then
                Alcotest.failf "%s %s span %d: duration %d <> path total %d"
                  id kind root.Obs.Critpath.sid d p.Obs.Critpath.total_ns;
              let sum =
                List.fold_left
                  (fun a (s : Obs.Critpath.seg) ->
                    a + s.Obs.Critpath.seg_stop - s.Obs.Critpath.seg_start)
                  0 p.Obs.Critpath.segs
              in
              if sum <> d then
                Alcotest.failf "%s %s span %d: segments sum %d <> %d" id kind
                  root.Obs.Critpath.sid sum d)
            (Obs.Critpath.roots ix ~kind))
        [ "migration"; "thread_group_create" ];
      Alcotest.(check bool) (id ^ ": roots checked") true (!checked > 0))
    [ "F6"; "R4" ]

(* The partition as it was computed before the sweep: every slice scans
   all intervals for the innermost one covering it. Kept here only as the
   reference [Critpath.segments] must reproduce. *)
let scan_segments ~w_start ~w_stop (intervals : Obs.Critpath.ival list) =
  let open Obs.Critpath in
  let rank iv = (iv.i_start, (if iv.i_wire then 1 else 0), iv.i_id) in
  let module IS = Set.Make (Int) in
  let bounds =
    List.fold_left
      (fun acc iv ->
        let acc =
          if iv.i_start > w_start && iv.i_start < w_stop then
            IS.add iv.i_start acc
          else acc
        in
        if iv.i_stop > w_start && iv.i_stop < w_stop then IS.add iv.i_stop acc
        else acc)
      (IS.of_list [ w_start; w_stop ])
      intervals
  in
  let pick a b =
    List.fold_left
      (fun best iv ->
        if iv.i_start <= a && iv.i_stop >= b then
          match best with
          | Some bv when rank bv >= rank iv -> best
          | _ -> Some iv
        else best)
      None intervals
  in
  let rec slices acc = function
    | a :: (b :: _ as rest) when a < b -> (
        match pick a b with
        | Some iv -> slices ((iv, a, b) :: acc) rest
        | None -> slices acc rest)
    | _ :: rest -> slices acc rest
    | [] -> List.rev acc
  in
  List.fold_left
    (fun acc (iv, a, b) ->
      match acc with
      | { label; on_wire; seg_stop; seg_start } :: tl
        when label = iv.i_label && on_wire = iv.i_wire && seg_stop = a ->
          { label; on_wire; seg_start; seg_stop = b } :: tl
      | _ ->
          { label = iv.i_label; on_wire = iv.i_wire; seg_start = a; seg_stop = b }
          :: acc)
    []
    (slices [] (IS.elements bounds))
  |> List.rev

(* Random windows and interval sets: intervals may start before or end
   after the window, be empty or inverted, and share start times so the
   wire-over-span and id tiebreaks decide. Few labels, so merging is
   exercised too. Ids are positions: ranks stay distinct. *)
let gen_partition =
  QCheck.Gen.(
    let* w_start = int_bound 50 in
    let* w_len = int_bound 200 in
    let* specs =
      list_size (int_bound 40)
        (quad (int_range (-20) 260) (int_range (-10) 150) bool (int_bound 2))
    in
    let intervals =
      List.mapi
        (fun i (start, len, wire, label) ->
          {
            Obs.Critpath.i_start = start;
            i_stop = start + len;
            i_wire = wire;
            i_id = i;
            i_label = Printf.sprintf "L%d" label;
          })
        specs
    in
    return (w_start, w_start + w_len, intervals))

let prop_sweep_matches_scan =
  QCheck.Test.make ~name:"sweep partition == reference scan" ~count:500
    (QCheck.make gen_partition
       ~print:(fun (w_start, w_stop, ivs) ->
         Printf.sprintf "window [%d, %d) %s" w_start w_stop
           (String.concat " "
              (List.map
                 (fun (iv : Obs.Critpath.ival) ->
                   Printf.sprintf "%s%d:[%d,%d)" iv.Obs.Critpath.i_label
                     iv.Obs.Critpath.i_id iv.Obs.Critpath.i_start
                     iv.Obs.Critpath.i_stop)
                 ivs))))
    (fun (w_start, w_stop, intervals) ->
      Obs.Critpath.segments ~w_start ~w_stop intervals
      = scan_segments ~w_start ~w_stop intervals)

(* --- analyze / diff documents --- *)

let doc_with_hist ~mean ~failed =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "popcornsim-bench-v2");
      ( "experiments",
        Obs.Json.Arr
          [
            Obs.Json.Obj
              [
                ("id", Obs.Json.Str "T1");
                ( "metrics",
                  Obs.Json.Obj
                    [
                      ( "counters",
                        Obs.Json.Arr
                          [
                            Obs.Json.Obj
                              [
                                ("name", Obs.Json.Str "migration.failed");
                                ("kernel", Obs.Json.Null);
                                ("value", Obs.Json.Int failed);
                              ];
                          ] );
                      ("gauges", Obs.Json.Arr []);
                      ( "histograms",
                        Obs.Json.Arr
                          [
                            Obs.Json.Obj
                              [
                                ("name", Obs.Json.Str "migration.total_ns");
                                ("kernel", Obs.Json.Int 0);
                                ("count", Obs.Json.Int 4);
                                ("mean", Obs.Json.Float mean);
                                ("p50", Obs.Json.Float mean);
                                ("p99", Obs.Json.Float 20000.);
                                ("max", Obs.Json.Float 20000.);
                              ];
                          ] );
                    ] );
              ];
          ] );
    ]

let test_diff_flags_regression () =
  let old_doc = doc_with_hist ~mean:10000. ~failed:0 in
  let regressed = doc_with_hist ~mean:15000. ~failed:0 in
  let report, n = Obs.Report.diff ~fail_pct:10. ~old_doc ~new_doc:regressed () in
  Alcotest.(check int) "+50%% mean is a regression" 1 n;
  Alcotest.(check bool) "report names the metric" true
    (contains ~sub:"migration.total_ns.mean" report)

let test_diff_passes_unchanged () =
  let doc = doc_with_hist ~mean:10000. ~failed:0 in
  let _, n = Obs.Report.diff ~fail_pct:10. ~old_doc:doc ~new_doc:doc () in
  Alcotest.(check int) "identical docs: no regressions" 0 n

let test_diff_flags_failure_counter () =
  let old_doc = doc_with_hist ~mean:10000. ~failed:0 in
  let new_doc = doc_with_hist ~mean:10000. ~failed:2 in
  let _, n = Obs.Report.diff ~fail_pct:10. ~old_doc ~new_doc () in
  Alcotest.(check int) "failure-counter increase is a regression" 1 n

let test_analyze_real_doc () =
  (* End-to-end through the v2 results schema: serialize, reparse, analyze. *)
  let sink = Obs.Sink.create () in
  ignore (run_workload ~sink ~seed:42 ());
  let doc =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str "popcornsim-bench-v2");
        ( "experiments",
          Obs.Json.Arr
            [
              Obs.Json.Obj
                [
                  ("id", Obs.Json.Str "W");
                  ( "spans",
                    Obs.Critpath.ispans_to_json
                      (Obs.Critpath.ispans_of_recorder sink.Obs.Sink.spans) );
                  ("causal", Obs.Causal.to_json sink.Obs.Sink.causal);
                ];
            ] );
      ]
  in
  let reparsed =
    match Obs.Json.of_string (Obs.Json.to_string doc) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  match Obs.Report.analyze_doc reparsed with
  | Ok report ->
      Alcotest.(check bool) "report has a critical path" true
        (contains ~sub:"critical path of slowest migration"
           report);
      Alcotest.(check bool) "sum is exact" true
        (contains ~sub:"sum exact" report)
  | Error e -> Alcotest.fail e

let test_analyze_tolerates_truncation () =
  (* Malformed span / causal entries (as from a truncated or hand-edited
     stream) are skipped; the analyzer still reports on what's left. *)
  let doc =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str "popcornsim-bench-v2");
        ( "experiments",
          Obs.Json.Arr
            [
              Obs.Json.Obj
                [
                  ("id", Obs.Json.Str "X");
                  ( "spans",
                    Obs.Json.Arr
                      [
                        Obs.Json.Obj
                          [
                            ("id", Obs.Json.Int 0);
                            ("kind", Obs.Json.Str "migration");
                            ("kernel", Obs.Json.Int 0);
                            ("run", Obs.Json.Int 0);
                            ("start", Obs.Json.Int 0);
                            ("stop", Obs.Json.Int (-1));
                            (* left open: clamped to end of run *)
                          ];
                        Obs.Json.Obj [ ("id", Obs.Json.Int 1) ];
                        (* truncated entry: skipped *)
                        Obs.Json.Str "garbage";
                      ] );
                  ( "causal",
                    Obs.Json.Arr
                      [
                        Obs.Json.Obj
                          [
                            ("ev", Obs.Json.Str "send");
                            ("id", Obs.Json.Int 9);
                            ("run", Obs.Json.Int 0);
                            ("src", Obs.Json.Int 0);
                            ("dst", Obs.Json.Int 1);
                            ("at", Obs.Json.Int 500);
                            ("bytes", Obs.Json.Int 8);
                            ("from_span", Obs.Json.Int 0);
                          ];
                        (* send with no deliver: a lost message *)
                        Obs.Json.Obj [ ("ev", Obs.Json.Str "deliver") ];
                        Obs.Json.Null;
                      ] );
                ];
            ] );
      ]
  in
  match Obs.Report.analyze_doc doc with
  | Ok report ->
      Alcotest.(check bool) "surviving span analyzed" true
        (contains ~sub:"spans: 1 (1 unclosed)" report);
      Alcotest.(check bool) "lost message surfaced" true
        (contains ~sub:"1 sent, 0 delivered, 1 lost" report)
  | Error e -> Alcotest.fail e

(* --- JSON parser --- *)

let test_json_parser_roundtrip () =
  let doc =
    Obs.Json.Obj
      [
        ("i", Obs.Json.Int 42);
        ("neg", Obs.Json.Int (-7));
        ("f", Obs.Json.Float 2.5);
        ("s", Obs.Json.Str "a\"b\\c\nd\tunicode \xe2\x9c\x93");
        ("null", Obs.Json.Null);
        ("t", Obs.Json.Bool true);
        ( "arr",
          Obs.Json.Arr
            [ Obs.Json.Int 1; Obs.Json.Obj [ ("k", Obs.Json.Str "v") ] ] );
        ("empty_obj", Obs.Json.Obj []);
        ("empty_arr", Obs.Json.Arr []);
      ]
  in
  match Obs.Json.of_string (Obs.Json.to_string doc) with
  | Ok parsed ->
      Alcotest.(check string) "roundtrip identical"
        (Obs.Json.to_string doc)
        (Obs.Json.to_string parsed)
  | Error e -> Alcotest.fail e

let test_json_parser_rejects_garbage () =
  let bad s =
    match Obs.Json.of_string s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "truncated object" true (bad {|{"a": [1, 2|});
  Alcotest.(check bool) "trailing garbage" true (bad {|{"a": 1} extra|});
  Alcotest.(check bool) "bare word" true (bad "flase");
  Alcotest.(check bool) "empty input" true (bad "");
  Alcotest.(check bool) "unterminated string" true (bad {|"abc|});
  match Obs.Json.of_string {| {"u": "é😀", "n": -0.5e2} |} with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid escapes rejected: %s" e

(* Malformed-input edges beyond plain garbage: truncation inside every
   construct, broken escapes, and duplicate keys (which must parse — the
   JSON spec allows them — with first-key-wins access, never a crash). *)
let test_json_malformed_edges () =
  let bad s =
    match Obs.Json.of_string s with Ok _ -> false | Error _ -> true
  in
  (* Truncated objects, in every spot a token can end. *)
  Alcotest.(check bool) "cut after brace" true (bad {|{|});
  Alcotest.(check bool) "cut after key" true (bad {|{"a"|});
  Alcotest.(check bool) "cut after colon" true (bad {|{"a":|});
  Alcotest.(check bool) "cut after comma" true (bad {|{"a": 1,|});
  Alcotest.(check bool) "cut mid-nested" true (bad {|{"a": {"b": [{|});
  Alcotest.(check bool) "comma without pair" true (bad {|{"a": 1,}|});
  (* Broken string escapes. *)
  Alcotest.(check bool) "unknown escape" true (bad {|{"a": "\x"}|});
  Alcotest.(check bool) "truncated \\u" true (bad {|{"a": "\u12"}|});
  Alcotest.(check bool) "non-hex \\u" true (bad {|{"a": "\uzzzz"}|});
  Alcotest.(check bool) "lone backslash at end" true (bad {|{"a": "\|});
  (* Valid escapes still parse. *)
  (match Obs.Json.of_string {|{"a": "\n\t\\\"A"}|} with
  | Ok (Obs.Json.Obj [ ("a", Obs.Json.Str s) ]) ->
      Alcotest.(check string) "escapes decoded" "\n\t\\\"A" s
  | Ok _ -> Alcotest.fail "unexpected shape"
  | Error e -> Alcotest.failf "valid escapes rejected: %s" e);
  (* Duplicate keys: parse succeeds, both pairs survive in order, and
     List.assoc-based access (what every of_json in the tree uses) sees
     the first — so a malicious/buggy producer cannot shadow a value. *)
  match Obs.Json.of_string {|{"k": 1, "k": 2}|} with
  | Ok (Obs.Json.Obj fields as j) ->
      Alcotest.(check int) "both pairs kept" 2 (List.length fields);
      (match List.assoc_opt "k" fields with
      | Some (Obs.Json.Int v) -> Alcotest.(check int) "first key wins" 1 v
      | _ -> Alcotest.fail "assoc lost the key");
      Alcotest.(check string) "reserialises both, in order"
        {|{"k":1,"k":2}|}
        (Obs.Json.to_string j)
  | Ok _ -> Alcotest.fail "duplicate keys parsed to a non-object"
  | Error e -> Alcotest.failf "duplicate keys rejected: %s" e

(* --- trace ring retained counter --- *)

let test_trace_retained_o1 () =
  let tr = Sim.Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Sim.Trace.emit tr ~at:i ~cat:"c" "e"
  done;
  Alcotest.(check int) "retained is capacity-bounded" 4 (Sim.Trace.count tr);
  Alcotest.(check int) "total counts evictions" 10 (Sim.Trace.total tr);
  Alcotest.(check int) "dropped = total - retained" 6
    (Sim.Trace.total tr - Sim.Trace.count tr);
  Sim.Trace.clear tr;
  Alcotest.(check int) "clear resets retained" 0 (Sim.Trace.count tr);
  Sim.Trace.emit tr ~at:1 ~cat:"c" "e";
  Alcotest.(check int) "counts again after clear" 1 (Sim.Trace.count tr)

(* --- unclosed spans clamp at export --- *)

let test_export_clamps_unclosed () =
  let rec_ = Obs.Span.create () in
  Obs.Span.new_run rec_;
  let open_span = Obs.Span.start rec_ ~kernel:0 ~at:100 Obs.Span.Migration in
  let closed = Obs.Span.start rec_ ~kernel:1 ~at:200 Obs.Span.Import in
  Obs.Span.finish closed ~at:800;
  ignore open_span;
  let doc = Obs.Export.chrome_trace ~spans:[ rec_ ] () in
  (* Drawn to the end of its run, and flagged. *)
  let drawn =
    List.find_map
      (fun e ->
        match (member "name" e, member "args" e) with
        | Some (Obs.Json.Str "migration"), Some args ->
            Some (member "dur" e, member "unclosed" args)
        | _ -> None)
      (trace_events doc)
  in
  Alcotest.(check bool) "drawn to end of run, flagged unclosed" true
    (drawn = Some (Some (Obs.Json.Float 0.7), Some (Obs.Json.Bool true)));
  (* Read back as open, so the analysis applies its own clamp. *)
  match Obs.Report.datasets_of_doc doc with
  | [ d ] -> (
      match
        List.find_opt
          (fun (s : Obs.Critpath.ispan) -> s.Obs.Critpath.kind = "migration")
          d.Obs.Report.spans
      with
      | Some s ->
          Alcotest.(check int) "read back as open" (-1) s.Obs.Critpath.stop;
          let ix =
            Obs.Critpath.build_index ~spans:d.Obs.Report.spans
              ~causal:d.Obs.Report.causal
          in
          Alcotest.(check int) "clamped to end of run" 700
            (Obs.Critpath.duration ix s)
      | None -> Alcotest.fail "migration span missing from export")
  | ds -> Alcotest.failf "expected one dataset, got %d" (List.length ds)

(* --- the flat causal encoding --- *)

(* The object-array encoding causal sections had before the flat one,
   kept here only as the reference that analysis must not tell apart. *)
let legacy_event_json (e : Obs.Causal.event) =
  let open Obs.Json in
  match e with
  | Obs.Causal.Send { id; run; src; dst; at; bytes; from_span } ->
      Obj
        [
          ("ev", Str "send"); ("id", Int id); ("run", Int run);
          ("src", Int src); ("dst", Int dst); ("at", Int at);
          ("bytes", Int bytes);
          ( "from_span",
            match from_span with None -> Null | Some sp -> Int sp );
        ]
  | Obs.Causal.Deliver { id; run; dst; at } ->
      Obj
        [
          ("ev", Str "deliver"); ("id", Int id); ("run", Int run);
          ("dst", Int dst); ("at", Int at);
        ]
  | Obs.Causal.Link { id; run; span } ->
      Obj
        [
          ("ev", Str "link"); ("id", Int id); ("run", Int run);
          ("span", Int span);
        ]

let reparse j =
  match Obs.Json.of_string (Obs.Json.to_string j) with
  | Ok j -> j
  | Error e -> Alcotest.fail e

let analyze j =
  match Obs.Report.analyze_doc j with
  | Ok r -> r
  | Error e -> Alcotest.fail e

(* [f] applied to the "causal" section of every experiment of a results
   document. *)
let map_causal f doc =
  let open Obs.Json in
  let exp = function
    | Obj fs ->
        Obj (List.map (function "causal", c -> ("causal", f c) | kv -> kv) fs)
    | j -> j
  in
  match doc with
  | Obj fs ->
      Obj
        (List.map
           (function
             | "experiments", Arr es -> ("experiments", Arr (List.map exp es))
             | kv -> kv)
           fs)
  | j -> j

let causal_sections doc =
  match member "experiments" doc with
  | Some (Obs.Json.Arr es) -> List.filter_map (member "causal") es
  | _ -> []

let test_flat_equals_legacy () =
  List.iter
    (fun id ->
      let o = observed_outcome id in
      let events = Obs.Causal.events (observed_sink id).Obs.Sink.causal in
      let flat = reparse (Experiments.Registry.report_json ~quick:true [ o ]) in
      let legacy =
        reparse
          (map_causal
             (fun _ -> Obs.Json.Arr (List.map legacy_event_json events))
             flat)
      in
      List.iter
        (fun (shape, doc) ->
          match causal_sections doc with
          | [ c ] ->
              Alcotest.(check bool) (id ^ ": " ^ shape ^ " section decodes")
                true
                (Obs.Causal.events_of_json c = events)
          | _ -> Alcotest.failf "%s: one causal section expected" id)
        [ ("flat", flat); ("legacy", legacy) ];
      Alcotest.(check string) (id ^ ": analyze output") (analyze legacy)
        (analyze flat))
    [ "F6"; "R4" ]

let width : Obs.Causal.event -> int = function
  | Obs.Causal.Send _ -> 8
  | Obs.Causal.Deliver _ -> 5
  | Obs.Causal.Link _ -> 4

(* The longest prefix of [events] whose encoding fits in [n] integers. *)
let rec fitting n = function
  | e :: rest when width e <= n -> e :: fitting (n - width e) rest
  | _ -> []

let test_flat_truncation () =
  let sink = Obs.Sink.create () in
  ignore (run_workload ~sink ~seed:42 ());
  let events = Obs.Causal.events sink.Obs.Sink.causal in
  let text = Obs.Json.to_string (Obs.Causal.to_json sink.Obs.Sink.causal) in
  let data = String.index text '[' + 1 in
  (* Byte offset of the first integer of the third-last event. *)
  let ints_before =
    List.fold_left ( + ) 0
      (List.filteri
         (fun i _ -> i < List.length events - 3)
         (List.map width events))
  in
  let rec after_commas pos k =
    if k = 0 then pos else after_commas (String.index_from text pos ',' + 1) (k - 1)
  in
  let first = after_commas data ints_before in
  for cut = first to String.length text do
    (* A section cut at [cut]: keep the integers the cut left whole, then
       close the array again. *)
    let prefix = String.sub text 0 cut in
    let kept = String.sub prefix 0 (String.rindex prefix ',') in
    let ints =
      List.length
        (String.split_on_char ','
           (String.sub kept data (String.length kept - data)))
    in
    match Obs.Json.of_string (kept ^ "]}") with
    | Error e -> Alcotest.failf "cut at %d: %s" cut e
    | Ok j ->
        if Obs.Causal.events_of_json j <> fitting ints events then
          Alcotest.failf "cut at byte %d (%d integers): wrong prefix" cut ints
  done;
  (* A malformed entry ends decoding at the event it starts. *)
  let flat = Obs.Causal.to_json sink.Obs.Sink.causal in
  let ints =
    match flat with
    | Obs.Json.Obj fs -> (
        match List.assoc "data" fs with Obs.Json.Arr l -> l | _ -> [])
    | _ -> []
  in
  List.iter
    (fun (k, bad) ->
      let start =
        List.fold_left ( + ) 0
          (List.filteri (fun i _ -> i < k) (List.map width events))
      in
      let data =
        List.mapi (fun i x -> if i = start then bad else x) ints
      in
      let section =
        Obs.Json.Obj
          [
            ("format", Obs.Json.Str "causal-flat-v1");
            ("data", Obs.Json.Arr data);
          ]
      in
      Alcotest.(check int)
        (Printf.sprintf "malformed event %d: prefix kept" k)
        k
        (List.length (Obs.Causal.events_of_json section)))
    [ (0, Obs.Json.Str "x"); (5, Obs.Json.Int 9); (7, Obs.Json.Float 1.) ]

(* --- Chrome traces --- *)

let trace_of id =
  let sink = observed_sink id in
  reparse
    (Obs.Export.chrome_trace ~spans:[ sink.Obs.Sink.spans ]
       ~causal:[ sink.Obs.Sink.causal ] ~traces:[ sink.Obs.Sink.trace ] ())

let test_flow_events () =
  List.iter
    (fun id ->
      let events = Obs.Causal.events (observed_sink id).Obs.Sink.causal in
      let doc = trace_of id in
      (* (name, cat, id) -> phases seen *)
      let flows = Hashtbl.create 1024 in
      List.iter
        (fun e ->
          if member "cat" e = Some (Obs.Json.Str "causal") then begin
            if member "args" e <> None then
              Alcotest.failf "%s: causal event with args" id;
            let key = (member "name" e, member "cat" e, member "id" e) in
            let ph =
              match member "ph" e with Some (Obs.Json.Str p) -> p | _ -> "?"
            in
            Hashtbl.replace flows key
              (ph :: Option.value (Hashtbl.find_opt flows key) ~default:[])
          end)
        (trace_events doc);
      let delivered =
        List.length
          (List.filter
             (function Obs.Causal.Deliver _ -> true | _ -> false)
             events)
      in
      let pairs =
        Hashtbl.fold
          (fun _ phases n ->
            match List.sort compare phases with
            | [ "f"; "s" ] -> n + 1
            | [ "s" ] -> n (* lost message *)
            | _ -> Alcotest.failf "%s: flow with phases %s" id
                     (String.concat "," phases))
          flows 0
      in
      Alcotest.(check int) (id ^ ": one s + f pair per delivery") delivered
        pairs;
      Alcotest.(check bool) (id ^ ": causal member decodes") true
        (match member "causal" doc with
        | Some c -> Obs.Causal.events_of_json c = events
        | None -> false))
    [ "F6"; "R4" ]

(* A trace says what the results document says, save the label and the
   deadline counters (a trace carries no metrics). *)
let test_trace_equals_results () =
  let strip report =
    List.filter
      (fun l ->
        not (String.starts_with ~prefix:"== " l || contains ~sub:"deadlines:" l))
      (String.split_on_char '\n' report)
  in
  List.iter
    (fun id ->
      let results =
        analyze
          (reparse
             (Experiments.Registry.report_json ~quick:true
                [ observed_outcome id ]))
      in
      let trace = trace_of id in
      Alcotest.(check (list string)) (id ^ ": trace analysis") (strip results)
        (strip (analyze trace));
      (* A trace written before the "causal" member existed carries each
         causal record as the args of a cat "causal" event instead. *)
      let legacy =
        let records =
          List.map
            (fun e ->
              Obs.Json.Obj
                [
                  ("name", Obs.Json.Str "msg"); ("cat", Obs.Json.Str "causal");
                  ("ph", Obs.Json.Str "i"); ("ts", Obs.Json.Float 0.);
                  ("pid", Obs.Json.Int 0); ("tid", Obs.Json.Int 0);
                  ("args", legacy_event_json e);
                ])
            (Obs.Causal.events (observed_sink id).Obs.Sink.causal)
        in
        match trace with
        | Obs.Json.Obj fs ->
            Obs.Json.Obj
              (List.filter_map
                 (function
                   | "causal", _ -> None
                   | "traceEvents", Obs.Json.Arr l ->
                       Some ("traceEvents", Obs.Json.Arr (l @ records))
                   | kv -> Some kv)
                 fs)
        | j -> j
      in
      Alcotest.(check string) (id ^ ": trace with causal args") (analyze trace)
        (analyze legacy))
    [ "F6"; "R4" ]

(* Two recorders in one trace whose (run, message id) and (run, span id)
   pairs collide: every root keeps the critical path its own recorder
   gives it. *)
let test_two_recorder_trace () =
  let sinks = List.map observed_sink [ "F6"; "R4" ] in
  let sends (s : Obs.Sink.t) =
    List.filter_map
      (function
        | Obs.Causal.Send { id; run; _ } -> Some (run, id) | _ -> None)
      (Obs.Causal.events s.Obs.Sink.causal)
  in
  (match sinks with
  | [ a; b ] ->
      let tbl = Hashtbl.create 1024 in
      List.iter (fun k -> Hashtbl.replace tbl k ()) (sends a);
      Alcotest.(check bool) "message keys collide" true
        (List.exists (Hashtbl.mem tbl) (sends b))
  | _ -> assert false);
  let doc =
    reparse
      (Obs.Export.chrome_trace
         ~spans:(List.map (fun (s : Obs.Sink.t) -> s.Obs.Sink.spans) sinks)
         ~causal:(List.map (fun (s : Obs.Sink.t) -> s.Obs.Sink.causal) sinks)
         ())
  in
  let d =
    match Obs.Report.datasets_of_doc doc with
    | [ d ] -> d
    | ds -> Alcotest.failf "expected one dataset, got %d" (List.length ds)
  in
  let traced =
    Obs.Critpath.build_index ~spans:d.Obs.Report.spans
      ~causal:d.Obs.Report.causal
  in
  let seg_list (p : Obs.Critpath.path) =
    List.map
      (fun (s : Obs.Critpath.seg) ->
        (s.Obs.Critpath.label, s.Obs.Critpath.seg_start, s.Obs.Critpath.seg_stop))
      p.Obs.Critpath.segs
  in
  (* Each recorder's runs start after the last run the previous recorder's
     spans or messages mention. *)
  let offset = ref 0 and checked = ref 0 in
  List.iter
    (fun (s : Obs.Sink.t) ->
      let spans = Obs.Critpath.ispans_of_recorder s.Obs.Sink.spans in
      let own =
        Obs.Critpath.build_index ~spans
          ~causal:(Obs.Causal.events s.Obs.Sink.causal)
      in
      List.iter
        (fun kind ->
          let by_key = Hashtbl.create 256 in
          List.iter
            (fun (r : Obs.Critpath.ispan) ->
              Hashtbl.replace by_key (r.Obs.Critpath.run, r.Obs.Critpath.sid) r)
            (Obs.Critpath.roots traced ~kind);
          List.iter
            (fun (root : Obs.Critpath.ispan) ->
              incr checked;
              let want = Obs.Critpath.critical_path own ~root in
              match
                Hashtbl.find_opt by_key
                  (root.Obs.Critpath.run + !offset, root.Obs.Critpath.sid)
              with
              | None -> Alcotest.failf "root %d missing" root.Obs.Critpath.sid
              | Some troot ->
                  let got = Obs.Critpath.critical_path traced ~root:troot in
                  if
                    got.Obs.Critpath.total_ns <> want.Obs.Critpath.total_ns
                    || seg_list got <> seg_list want
                  then
                    Alcotest.failf "%s span %d (run %d): path differs" kind
                      root.Obs.Critpath.sid root.Obs.Critpath.run)
            (Obs.Critpath.roots own ~kind))
        [ "migration"; "thread_group_create" ];
      let last =
        List.fold_left
          (fun m (e : Obs.Causal.event) ->
            match e with
            | Obs.Causal.Send { run; _ }
            | Obs.Causal.Deliver { run; _ }
            | Obs.Causal.Link { run; _ } ->
                max m run)
          (List.fold_left
             (fun m (sp : Obs.Critpath.ispan) -> max m sp.Obs.Critpath.run)
             (-1) spans)
          (Obs.Causal.events s.Obs.Sink.causal)
      in
      offset := !offset + last + 1)
    sinks;
  Alcotest.(check bool) "roots checked" true (!checked > 0)

let () =
  Alcotest.run "causal"
    [
      ( "causal-log",
        [
          Alcotest.test_case "happens-before shape" `Quick test_causal_dag_shape;
          Alcotest.test_case "deterministic across runs" `Quick
            test_causal_deterministic;
          Alcotest.test_case "json roundtrip" `Quick test_causal_json_roundtrip;
        ] );
      ( "critical-path",
        [
          Alcotest.test_case "hand-built 3-kernel chain" `Quick
            test_critical_path_known_chain;
          Alcotest.test_case "real run sums exactly" `Quick
            test_critical_path_of_real_run;
          Alcotest.test_case "duration is path total (F6, R4)" `Quick
            test_duration_is_path_total;
          QCheck_alcotest.to_alcotest prop_sweep_matches_scan;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "v2 results document" `Quick test_analyze_real_doc;
          Alcotest.test_case "tolerates truncation" `Quick
            test_analyze_tolerates_truncation;
        ] );
      ( "diff",
        [
          Alcotest.test_case "flags +50%% regression" `Quick
            test_diff_flags_regression;
          Alcotest.test_case "passes unchanged run" `Quick
            test_diff_passes_unchanged;
          Alcotest.test_case "flags failure counter" `Quick
            test_diff_flags_failure_counter;
        ] );
      ( "json-parser",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_parser_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_json_parser_rejects_garbage;
          Alcotest.test_case "malformed edges" `Quick test_json_malformed_edges;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "trace retained O(1)" `Quick test_trace_retained_o1;
          Alcotest.test_case "export clamps unclosed spans" `Quick
            test_export_clamps_unclosed;
        ] );
      ( "causal-flat",
        [
          Alcotest.test_case "legacy and flat analyze identically (F6, R4)"
            `Quick test_flat_equals_legacy;
          Alcotest.test_case "truncated section decodes whole events" `Quick
            test_flat_truncation;
        ] );
      ( "chrome-trace",
        [
          Alcotest.test_case "flow events: s + f per delivery, no args" `Quick
            test_flow_events;
          Alcotest.test_case "analysis equals results (F6, R4)" `Quick
            test_trace_equals_results;
          Alcotest.test_case "two recorders with colliding ids" `Quick
            test_two_recorder_trace;
        ] );
    ]
