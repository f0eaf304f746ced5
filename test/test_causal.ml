(* Tests for causal tracing (lib/obs/causal), critical-path analysis
   (lib/obs/critpath), the analyze/diff reports (lib/obs/report), the JSON
   parser, and the trace-ring retained counter. *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

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

(* The selection shortcut behind Slo and analyze: a root's latency is its
   clamped window, so ranking roots needs no critical path. Guarded on
   every migration and remote thread creation of two observed runs. *)
let test_duration_is_path_total () =
  List.iter
    (fun id ->
      let e =
        match Experiments.Registry.find id with
        | Some e -> e
        | None -> Alcotest.failf "%s not registered" id
      in
      let o = Experiments.Registry.run_one ~quick:true ~observe:true e in
      let sink = Option.get o.Experiments.Registry.sink in
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
  match Obs.Report.datasets_of_doc doc with
  | [ d ] -> (
      match
        List.find_opt
          (fun (s : Obs.Critpath.ispan) -> s.Obs.Critpath.kind = "migration")
          d.Obs.Report.spans
      with
      | Some s ->
          Alcotest.(check int) "clamped to end of run" 800 s.Obs.Critpath.stop
      | None -> Alcotest.fail "migration span missing from export")
  | ds -> Alcotest.failf "expected one dataset, got %d" (List.length ds)

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
    ]
