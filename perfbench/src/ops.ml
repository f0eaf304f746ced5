(** The benchmark's workloads, each a list of operations.

    An operation is one experiment ([reproduce], [observe]) or one cell
    ([wide]). It drives the simulator only through public functions of its
    modules, wraps every call in a {!Tracer} span, and returns a digest of
    its simulated outputs; the harness compares that digest with the
    stored reference. Host time never enters a digest. *)

open Experiments

type workload = Reproduce | Observe | Wide

let workloads = [ Reproduce; Observe; Wide ]

let workload_name = function
  | Reproduce -> "reproduce"
  | Observe -> "observe"
  | Wide -> "wide"

let workload_of_string s =
  List.find_opt (fun w -> workload_name w = s) workloads

(** The simulation seeds the benchmark uses. [--seed n] selects
    [seeds.(n mod 8)], so every seed a run can use has stored references.
    The first is the simulator's default seed, the one
    [bench/baseline.json] was recorded at. *)
let seeds = [| Run_ctx.default_seed; 1; 2; 3; 4; 5; 6; 7 |]

let sim_seed n =
  let k = Array.length seeds in
  seeds.(((n mod k) + k) mod k)

(** Per-pass counts, filled in by the operations. *)
type counters = {
  mutable events : int;
  mutable queue_max : int;
  mutable parks : int;
  mutable coh_faults : int;
  mutable coh_pulls : int;
  mutable coh_invalidations : int;
  mutable export_bytes : int;
  mutable obs_spans : int;
  mutable causal_events : int;
  mutable engine_seeds : int list;  (** of every engine booted, latest first *)
}

let counters () =
  {
    events = 0;
    queue_max = 0;
    parks = 0;
    coh_faults = 0;
    coh_pulls = 0;
    coh_invalidations = 0;
    export_bytes = 0;
    obs_spans = 0;
    causal_events = 0;
    engine_seeds = [];
  }

(** How much of [observe]'s pipeline an operation runs. The other
    workloads always run all of theirs. *)
type mode =
  | Pipeline  (** every stage *)
  | Simulate_observed  (** the simulate stage alone, with a sink *)
  | Simulate_unobserved  (** the simulate stage alone, without a sink *)

type env = {
  seed : int;  (** simulation seed every machine of the pass boots with *)
  tr : Tracer.t;
  c : counters;
  prof : Obs.Prof.t option;  (** attached to every engine in a traced pass *)
  mode : mode;
  fail_op : string option;
      (** id of an operation to fail on purpose (the harness's own tests) *)
}

type op = { id : string; run : env -> string }

exception Mismatch of string

let digest parts = Digest.to_hex (Digest.string (String.concat "\000" parts))
let stage env name f = Tracer.with_span env.tr name f

let count_engines env engines =
  List.iter
    (fun e ->
      env.c.events <- env.c.events + Sim.Engine.events_processed e;
      env.c.queue_max <- max env.c.queue_max (Sim.Engine.queue_max_length e);
      env.c.parks <- env.c.parks + Sim.Engine.parks e;
      env.c.engine_seeds <- Sim.Engine.seed e :: env.c.engine_seeds)
    engines

let maybe_fail env id =
  if env.fail_op = Some id then failwith ("synthetic failure in " ^ id)

(* What [popcornsim run] prints for an experiment, minus its host-time
   line. *)
let render ctx tables =
  Run_ctx.output ctx
  ^ String.concat ""
      (List.map (fun t -> Stats.Table.render t ^ "\n") tables)

(* Run an experiment body; returns its context, tables and host ms. *)
let simulate env ?sink ~quick (e : Registry.t) =
  let ctx = Run_ctx.create ?sink ?prof:env.prof ~seed:env.seed ~quick () in
  let t0 = Tracer.now_ns () in
  let tables =
    Fun.protect
      ~finally:(fun () -> count_engines env ctx.Run_ctx.engines)
      (fun () ->
        stage env "simulate" (fun () ->
            maybe_fail env e.Registry.id;
            e.Registry.run ctx))
  in
  (ctx, tables, float_of_int (Tracer.now_ns () - t0) /. 1e6)

(** [reproduce]: one experiment as [popcornsim all] runs it, unobserved:
    simulate, then render. *)
let experiment_op ~quick (e : Registry.t) =
  let run env =
    let ctx, tables, _ = simulate env ~quick e in
    let out = stage env "render" (fun () -> render ctx tables) in
    digest [ out; string_of_int (Run_ctx.total_events ctx) ]
  in
  { id = e.Registry.id; run }

(* --- observe --- *)

let member k = function
  | Obs.Json.Obj kv -> List.assoc_opt k kv
  | _ -> None

let first_experiment doc =
  match member "experiments" doc with
  | Some (Obs.Json.Arr (x :: _)) -> x
  | _ -> raise (Mismatch "results document has no experiment")

let section k exp =
  match member k exp with Some j -> Obs.Json.to_string j | None -> "(none)"

(** One experiment of the committed baseline, as a results document of its
    own, so [Obs.Report.diff] compares exactly that experiment. *)
let baseline_doc baseline id =
  let exps =
    match member "experiments" baseline with
    | Some (Obs.Json.Arr l) ->
        List.filter (fun x -> member "id" x = Some (Obs.Json.Str id)) l
    | _ -> []
  in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "popcornsim-bench-v2");
      ("quick", Obs.Json.Bool true);
      ("experiments", Obs.Json.Arr exps);
    ]

(* The post-processing [Registry.run_one] applies to an observed run: the
   instrumentation-health metrics, then the worst-case & SLO summary, which
   is recorded back into the registry. *)
let post_process (sink : Obs.Sink.t) =
  let m = sink.Obs.Sink.metrics in
  let unclosed =
    List.fold_left
      (fun n (sp : Obs.Span.span) -> if sp.Obs.Span.stop < 0 then n + 1 else n)
      0
      (Obs.Span.spans sink.Obs.Sink.spans)
  in
  Obs.Metrics.add m "spans.unclosed" unclosed;
  Obs.Metrics.add m "trace.dropped"
    (Sim.Trace.total sink.Obs.Sink.trace - Sim.Trace.count sink.Obs.Sink.trace);
  let slo =
    Obs.Slo.summarize
      ~counters:(Obs.Slo.counters_of_registry m)
      ~spans:(Obs.Critpath.ispans_of_recorder sink.Obs.Sink.spans)
      ~causal:(Obs.Causal.events sink.Obs.Sink.causal)
      ()
  in
  Obs.Slo.record slo m;
  slo

(* At the default seed an observed experiment must reproduce the committed
   baseline: no regression under [diff] at 0%, and tables, metrics and the
   SLO section byte-identical. *)
let check_baseline ~regressions ~old_doc ~new_doc id =
  if regressions > 0 then
    raise
      (Mismatch
         (Printf.sprintf "%d regressions against bench/baseline.json"
            regressions));
  let old_exp =
    match member "experiments" old_doc with
    | Some (Obs.Json.Arr [ x ]) -> x
    | _ -> raise (Mismatch (id ^ " is not in bench/baseline.json"))
  in
  let new_exp = first_experiment new_doc in
  List.iter
    (fun k ->
      if section k old_exp <> section k new_exp then
        raise (Mismatch (k ^ " differ from bench/baseline.json")))
    [ "tables"; "metrics"; "slo" ]

(** [observe]: the CI observed path for one experiment — simulate with a
    sink, SLO post-processing, render, results JSON and Chrome-trace
    export, parse + analyze, and diff against the baseline. [baseline] is
    the experiment's baseline document ({!baseline_doc}). *)
let observed_op ~baseline (e : Registry.t) =
  let id = e.Registry.id in
  let run env =
    match env.mode with
    | Simulate_unobserved ->
        let ctx, tables, _ = simulate env ~quick:true e in
        digest [ render ctx tables ]
    | Simulate_observed ->
        let sink = Obs.Sink.create () in
        let ctx, tables, _ = simulate env ~sink ~quick:true e in
        digest [ render ctx tables ]
    | Pipeline ->
        let sink = Obs.Sink.create () in
        let ctx, tables, host_ms = simulate env ~sink ~quick:true e in
        let slo = stage env "slo" (fun () -> post_process sink) in
        let output = stage env "render" (fun () -> render ctx tables) in
        let outcome =
          {
            Registry.spec = e;
            host_ms;
            events_processed = Run_ctx.total_events ctx;
            tables;
            sink = Some sink;
            prof = None;
            slo = Some slo;
            output;
          }
        in
        let results =
          stage env "export_results" (fun () ->
              Obs.Json.to_string (Registry.report_json ~quick:true [ outcome ]))
        in
        let trace =
          stage env "export_trace" (fun () ->
              Obs.Json.to_string
                (Obs.Export.chrome_trace ~spans:[ sink.Obs.Sink.spans ]
                   ~causal:[ sink.Obs.Sink.causal ]
                   ~traces:[ sink.Obs.Sink.trace ] ()))
        in
        env.c.export_bytes <-
          env.c.export_bytes + String.length results + String.length trace;
        env.c.obs_spans <-
          env.c.obs_spans + List.length (Obs.Span.spans sink.Obs.Sink.spans);
        env.c.causal_events <-
          env.c.causal_events + Obs.Causal.count sink.Obs.Sink.causal;
        let doc =
          stage env "parse" (fun () ->
              match Obs.Json.of_string results with
              | Ok d -> d
              | Error m ->
                  raise (Mismatch ("results JSON does not parse: " ^ m)))
        in
        let analysis =
          stage env "analyze" (fun () ->
              match Obs.Report.analyze_doc doc with
              | Ok r -> r
              | Error m -> raise (Mismatch ("analyze: " ^ m)))
        in
        let regressions =
          stage env "diff" (fun () ->
              let old_doc = baseline and new_doc = doc in
              snd (Obs.Report.diff ~fail_pct:0. ~old_doc ~new_doc ()))
        in
        stage env "check" (fun () ->
            if env.seed = Run_ctx.default_seed then
              check_baseline ~regressions ~old_doc:baseline ~new_doc:doc id;
            let exp = first_experiment doc in
            digest
              [
                output;
                section "metrics" exp;
                section "slo" exp;
                analysis;
                string_of_int (Run_ctx.total_events ctx);
              ])
  in
  { id; run }

(* --- wide --- *)

module P = Workloads.Loads.Make (Workloads.Adapters.Popcorn_os)

type app = Mm | Sync | Comm

let app_name = function Mm -> "mm" | Sync -> "sync" | Comm -> "comm"

type cell = { app : app; kernels : int; iters : int }

(** Workers per kernel in every [wide] cell. *)
let workers_per_kernel = 4

let cell_id c = Printf.sprintf "%s-k%d" (app_name c.app) c.kernels

(** [wide]: a Popcorn-only cell on a machine with one core per kernel
    ([kernels / 16] sockets of 16 cores), booted and driven directly. *)
let cell_op cell =
  let run env =
    let m, cluster =
      stage env "boot" (fun () ->
          let m =
            Hw.Machine.create ~seed:env.seed ~sockets:(cell.kernels / 16)
              ~cores_per_socket:16 ()
          in
          Option.iter (fun p -> Obs.Prof.attach p m.Hw.Machine.eng) env.prof;
          (m, Popcorn.Cluster.boot m ~kernels:cell.kernels ~cores_per_kernel:1))
    in
    let eng = m.Hw.Machine.eng in
    let workers = workers_per_kernel * cell.kernels in
    let iters = cell.iters in
    let elapsed = ref (-1) in
    Sim.Engine.spawn eng (fun () ->
        ignore
          (Popcorn.Api.start_process cluster ~origin:0 (fun th ->
               let t0 = Sim.Engine.now eng in
               (match cell.app with
               | Mm -> P.app_mm_bound eng th ~workers ~iters
               | Sync -> P.app_sync_bound eng th ~workers ~iters
               | Comm -> P.app_comm_bound eng th ~workers ~iters);
               elapsed := Sim.Engine.now eng - t0)));
    let coh = cluster.Popcorn.Types.coh_stats in
    Fun.protect
      ~finally:(fun () ->
        count_engines env [ eng ];
        env.c.coh_faults <- env.c.coh_faults + coh.Coherence.Stats.faults;
        env.c.coh_pulls <- env.c.coh_pulls + coh.Coherence.Stats.pulls;
        env.c.coh_invalidations <-
          env.c.coh_invalidations + coh.Coherence.Stats.invalidations)
      (fun () ->
        stage env "simulate" (fun () ->
            maybe_fail env (cell_id cell);
            Sim.Engine.run eng));
    if !elapsed < 0 then raise (Mismatch "cell did not finish");
    let st = Msg.Transport.stats cluster.Popcorn.Types.fabric in
    digest
      (List.map string_of_int
         [
           !elapsed;
           Sim.Engine.now eng;
           Sim.Engine.events_processed eng;
           st.Msg.Transport.sent;
           st.Msg.Transport.delivered;
           st.Msg.Transport.doorbells;
           st.Msg.Transport.total_latency;
           coh.Coherence.Stats.faults;
           coh.Coherence.Stats.dir_hops;
           coh.Coherence.Stats.pulls;
           coh.Coherence.Stats.invalidations;
         ])
  in
  { id = cell_id cell; run }

(* --- the workloads at full size --- *)

(** The experiments [observe] runs: export-heavy R2 and F3, analysis-heavy
    R4 and F6, and R3. *)
let observe_ids = [ "F3"; "F6"; "R2"; "R3"; "R4" ]

let wide_kernels = [ 64; 128; 256 ]

(* Iterations per app, chosen for run length alone: from each app's host
   cost per iteration, so that each app's three cells would take a similar
   share of a pass if every cell completed. mm-bound's cost grows about
   4-5x per doubling of the kernel count, so it gets the fewest. *)
let wide_iters = function Mm -> 2 | Sync -> 64 | Comm -> 32

let wide_cells =
  List.concat_map
    (fun app ->
      List.map
        (fun kernels -> { app; kernels; iters = wide_iters app })
        wide_kernels)
    [ Mm; Sync; Comm ]

let find_experiment id =
  match Registry.find id with
  | Some e -> e
  | None -> invalid_arg ("no experiment " ^ id)

(** The operations of a workload. [baseline] is the parsed
    [bench/baseline.json]. *)
let ops ~baseline = function
  | Reproduce -> List.map (experiment_op ~quick:false) Registry.all
  | Observe ->
      List.map
        (fun id ->
          observed_op ~baseline:(baseline_doc baseline id) (find_experiment id))
        observe_ids
  | Wide -> List.map cell_op wide_cells
