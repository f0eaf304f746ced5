(** Passes, checks and metrics.

    A pass runs every operation of a workload once, each inside an
    ["op:<id>"] span under one ["pass"] span, and checks each operation's
    digest against the stored reference. A failing operation — a
    mismatch, an exception, an [Engine.Fiber_failure] — is recorded and
    the pass goes on with the next one. *)

(** A failed operation. [mismatch] is set when the operation produced
    output that disagrees with its reference (or has none to check
    against); otherwise it raised before producing any. *)
type failure = { op : string; reason : string; mismatch : bool }

type pass = {
  tr : Tracer.t;
  c : Ops.counters;
  attempted : int;
  failures : failure list;  (** in order *)
  digests : (string * string) list;  (** operation id, digest; in order *)
  gc_major : int;  (** major collections during the pass *)
  peak_rss_mb : float;  (** the process's peak resident set so far *)
}

(* The process's peak resident set, from the kernel's high-water mark. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
  |> Option.value ~default:nan

let wall p = Tracer.total p.tr "pass"

let run_pass ~workload ~seed ?refs ?prof ?(mode = Ops.Pipeline) ?fail_op ops
    =
  (* Every pass starts after a full major collection, so passes start
     alike. *)
  Gc.compact ();
  let tr = Tracer.create () and c = Ops.counters () in
  let env = { Ops.seed; tr; c; prof; mode; fail_op } in
  let failures = ref [] and digests = ref [] in
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  let fail ?(mismatch = true) op reason =
    failures := { op; reason; mismatch } :: !failures
  in
  let reason = function
    | Ops.Mismatch m -> (m, true)
    | Sim.Engine.Fiber_failure (fiber, e) ->
        let inner = Printexc.to_string e in
        (Printf.sprintf "Fiber_failure(%s, %s)" fiber inner, false)
    | e -> (Printexc.to_string e, false)
  in
  Tracer.with_span tr "pass" (fun () ->
      List.iter
        (fun (op : Ops.op) ->
          let run () = op.Ops.run env in
          match Tracer.with_span tr ("op:" ^ op.Ops.id) run with
          | exception e ->
              let why, mismatch = reason e in
              fail ~mismatch op.Ops.id why
          | d -> (
              digests := (op.Ops.id, d) :: !digests;
              match refs with
              | None -> ()
              | Some refs ->
                  Tracer.with_span tr "check" (fun () ->
                      match
                        Refs.find refs ~workload:(Ops.workload_name workload)
                          ~seed ~op:op.Ops.id
                      with
                      | Some r when r = d -> ()
                      | Some _ -> fail op.Ops.id "digest differs from reference"
                      | None -> fail op.Ops.id "no reference for this seed")))
        ops);
  {
    tr;
    c;
    attempted = List.length ops;
    failures = List.rev !failures;
    digests = List.rev !digests;
    gc_major = (Gc.quick_stat ()).Gc.major_collections - gc0;
    peak_rss_mb = peak_rss_mb ();
  }

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** The stages each workload's pipeline runs, as span names. Their
    per-layer metric is [obs.<stage>_s] on [observe]. *)
let stages = function
  | Ops.Reproduce -> [ "simulate"; "render" ]
  | Ops.Wide -> [ "boot"; "simulate" ]
  | Ops.Observe ->
      [
        "simulate";
        "slo";
        "render";
        "export_results";
        "export_trace";
        "parse";
        "analyze";
        "diff";
      ]

let obs_stages = stages Ops.Observe
let sim_seconds p = Tracer.total p.tr "simulate"

let mev_s p =
  let s = sim_seconds p in
  if s > 0. then float_of_int p.c.Ops.events /. s /. 1e6 else 0.

(** Every metric the benchmark reports, with its unit: end-to-end ones
    (untraced run) first, then per-layer ones (traced run). *)
let end_to_end =
  [
    ("wall_s", "s");
    ("sim_mev_s", "Mev/s");
    ("peak_rss_mb", "MB");
    ("setup_s", "s");
  ]

(* Obs.Prof subsystem tags, and the metric each one's self time goes to.
   Labels spawned without a tag go to [untagged.self_s]. *)
let prof_tags =
  [
    ("msg", "msg.self_s");
    ("popcorn", "popcorn.self_s");
    ("workload", "workloads.self_s");
    ("smp", "smp.self_s");
    ("mk", "mk.self_s");
  ]

let per_layer =
  [
    ("sim.dispatch_s", "s");
    ("sim.alloc_words_per_event", "words");
    ("sim.events", "count");
    ("sim.queue_max", "count");
    ("sim.parks", "count");
  ]
  @ List.map (fun (_, m) -> (m, "s")) prof_tags
  @ [
      ("untagged.self_s", "s");
      ("harness.self_s", "s");
      ("coherence.faults", "count");
      ("coherence.pulls", "count");
      ("coherence.invalidations", "count");
      ("gc.major_collections", "count");
    ]
  @ List.map (fun s -> ("obs." ^ s ^ "_s", "s")) obs_stages
  @ [
      ("obs.record_s", "s");
      ("obs.export_bytes", "bytes");
      ("obs.spans", "count");
      ("obs.causal_events", "count");
      ("bench.unattributed_s", "s");
      ("trace.overhead_frac", "ratio");
    ]

type result = {
  passes : (string * pass) list;  (** label, pass; in run order *)
  prof : Obs.Prof.t option;
  values : (string * float) list;  (** metric name, value; units above *)
}

let attempted r = List.fold_left (fun n (_, p) -> n + p.attempted) 0 r.passes

let failures r = List.concat_map (fun (_, p) -> p.failures) r.passes

(* [observe]'s simulate stage is a small share of its pass (well under a
   second of about half a minute), so a pass samples that stage's
   throughput once, briefly. This many extra simulate-only passes (with a
   sink, as in the pipeline), half before the timed passes and half after
   so that they span the run, give [sim_mev_s] more samples. *)
let simulate_passes = function
  | Ops.Observe -> 12
  | Ops.Reproduce | Ops.Wide -> 0

(** Untraced: as many passes as fit in [seconds] (at least one) — a new
    pass starts only if, at the mean pass time so far, it would end in
    time. Wall time is the median over passes, simulate throughput the
    median over passes and {!simulate_passes}. Peak memory is read after
    the first pass: later passes repeat the same work, and as the OCaml 5.1
    heap does not shrink between passes, a later reading would count
    passes rather than measure the workload. [after_pass] runs after each
    pass, outside its timing. *)
let measure_untraced ~workload ~seed ~refs ?(after_pass = ignore) ~seconds ops =
  let sims n =
    List.init n (fun _ ->
        run_pass ~workload ~seed ~mode:Ops.Simulate_observed ops)
  in
  let k = simulate_passes workload in
  let before = sims (k / 2) in
  let t0 = Tracer.now_ns () in
  let rec loop n acc =
    let p = run_pass ~workload ~seed ~refs ops in
    after_pass ();
    let acc = p :: acc and n = n + 1 in
    let elapsed = float_of_int (Tracer.now_ns () - t0) /. 1e9 in
    if elapsed *. float_of_int (n + 1) /. float_of_int n <= seconds then
      loop n acc
    else List.rev acc
  in
  let passes = loop 0 [] in
  let sims = before @ sims (k - (k / 2)) in
  let label name = List.mapi (fun i p -> (Printf.sprintf "%s%d" name i, p)) in
  {
    passes = label "pass" passes @ label "simulate" sims;
    prof = None;
    values =
      [
        ("wall_s", median (List.map wall passes));
        ("sim_mev_s", median (List.map mev_s (passes @ sims)));
        ("peak_rss_mb", (List.hd passes).peak_rss_mb);
      ];
  }

(** Traced: one untraced pass (stage times, counts), one pass with
    [Obs.Prof] attached to every engine (the subsystem split), and on
    [observe] one pass of the same experiments without a sink (what
    recording costs). *)
let measure_traced ~workload ~seed ~refs ops =
  let a = run_pass ~workload ~seed ~refs ops in
  let prof = Obs.Prof.create () in
  let b = run_pass ~workload ~seed ~refs ~prof ops in
  let unobserved =
    if workload = Ops.Observe then
      [
        ( "unobserved",
          run_pass ~workload ~seed ~mode:Ops.Simulate_unobserved ops );
      ]
    else []
  in
  let rows = Obs.Prof.rows prof in
  let self_s pred =
    List.fold_left
      (fun acc (r : Obs.Prof.row) ->
        if pred r.Obs.Prof.tag then
          acc +. (float_of_int r.Obs.Prof.self_ns /. 1e9)
        else acc)
      0. rows
  in
  let known tag = List.mem_assoc tag prof_tags in
  let stage_total p names =
    List.fold_left (fun acc s -> acc +. Tracer.total p.tr s) 0. names
  in
  let events = Obs.Prof.total_events prof in
  let minor =
    List.fold_left
      (fun acc (r : Obs.Prof.row) -> acc +. r.Obs.Prof.minor_words)
      0. rows
  in
  (* Only [observe]'s stages are the obs layer's: the other workloads
     simulate and render too, without a sink. *)
  let obs v = if workload = Ops.Observe then v else 0. in
  let cnt n = float_of_int n in
  let values =
    [
      ("sim.dispatch_s", float_of_int (Obs.Prof.sched_ns prof) /. 1e9);
      ( "sim.alloc_words_per_event",
        if events > 0 then minor /. float_of_int events else 0. );
      ("sim.events", cnt a.c.Ops.events);
      ("sim.queue_max", cnt a.c.Ops.queue_max);
      ("sim.parks", cnt a.c.Ops.parks);
    ]
    @ List.map
        (fun (tag, m) -> (m, self_s (fun t -> t = Some tag)))
        prof_tags
    @ [
        ( "untagged.self_s",
          self_s (function None -> true | Some t -> not (known t)) );
        ( "harness.self_s",
          (* The pass's simulate (and boot) stages minus what the
             profiler attributes to events and to dispatch: the
             experiment code running outside the engine. *)
          stage_total b [ "simulate"; "boot" ]
          -. float_of_int
               (Obs.Prof.attributed_ns prof + Obs.Prof.sched_ns prof)
             /. 1e9 );
        ("coherence.faults", cnt a.c.Ops.coh_faults);
        ("coherence.pulls", cnt a.c.Ops.coh_pulls);
        ("coherence.invalidations", cnt a.c.Ops.coh_invalidations);
        ("gc.major_collections", cnt a.gc_major);
      ]
    @ List.map
        (fun s -> ("obs." ^ s ^ "_s", obs (Tracer.total a.tr s)))
        obs_stages
    @ [
        ( "obs.record_s",
          match unobserved with
          | [ (_, u) ] -> sim_seconds a -. sim_seconds u
          | _ -> 0. );
        ("obs.export_bytes", cnt a.c.Ops.export_bytes);
        ("obs.spans", cnt a.c.Ops.obs_spans);
        ("obs.causal_events", cnt a.c.Ops.causal_events);
        ("bench.unattributed_s", wall a -. stage_total a (stages workload));
        ("trace.overhead_frac", (wall b /. wall a) -. 1.);
      ]
  in
  {
    passes = [ ("untraced", a); ("traced", b) ] @ unobserved;
    prof = Some prof;
    values;
  }

(** The spans of every pass, plus the profile, as one JSON document. *)
let trace_json ~workload ~seed r =
  let open Obs.Json in
  Obj
    ([
       ("schema", Str "perfbench-trace-v1");
       ("workload", Str (Ops.workload_name workload));
       ("seed", Int seed);
       ( "passes",
         Arr
           (List.map
              (fun (label, p) ->
                Obj [ ("label", Str label); ("spans", Tracer.to_json p.tr) ])
              r.passes) );
     ]
    @
    match (r.prof, List.assoc_opt "traced" r.passes) with
    | Some prof, Some b ->
        [ ("profile", Obs.Prof.to_json prof ~host_ms:(wall b *. 1e3)) ]
    | _ -> [])
