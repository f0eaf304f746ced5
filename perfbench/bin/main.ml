(* perfbench — the repository benchmark.

     main.exe --workload reproduce|observe|wide --seed N --seconds S --trace 0|1
     main.exe --gen-refs [--workload W]

   Run from the repository root. Prints what failed, then one JSON line:
   {"correct", "attempted", "failed", "metrics"} with the end-to-end
   metrics (--trace 0) or the per-layer ones (--trace 1). --gen-refs
   re-records perfbench/refs.json for every simulation seed the benchmark
   uses. See perfbench/README.md. *)

open Perfbench

let process_start = Tracer.now_ns ()
let baseline_path = "bench/baseline.json"
let refs_path = "perfbench/refs.json"
let out = "perfbench/out"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

(* Set-up runs this many times before the first pass and again after
   every pass, so its samples span the run; setup_s is their median. *)
let setup_repeats = 7

(* Loads what every run reads: the references and the committed baseline. *)
let setup () =
  let refs =
    match Refs.load refs_path with
    | Ok r -> r
    | Error e -> die "%s: %s" refs_path e
  in
  match Obs.Json.of_file baseline_path with
  | Ok baseline -> (refs, baseline)
  | Error e -> die "%s: %s" baseline_path e

let result_json ~correct ~failed ~attempted metrics =
  let open Obs.Json in
  Obj
    [
      ("correct", Bool correct);
      ("attempted", Int attempted);
      ("failed", Int failed);
      ( "metrics",
        Obj
          (List.map
             (fun (name, unit, v) ->
               (name, Obj [ ("value", Float v); ("unit", Str unit) ]))
             metrics) );
    ]

let measure ~workload ~seed ~seconds ~trace =
  let sim_seed = Ops.sim_seed seed in
  let times = ref [] in
  let setups ~from_start =
    let ready = ref None in
    for i = 1 to setup_repeats do
      let t0 =
        if from_start && i = 1 then process_start else Tracer.now_ns ()
      in
      ready :=
        Some
          (let refs, baseline = setup () in
           (refs, Ops.ops ~baseline workload));
      times := (float_of_int (Tracer.now_ns () - t0) /. 1e9) :: !times
    done;
    Option.get !ready
  in
  let refs, ops = setups ~from_start:true in
  let r =
    if trace then Harness.measure_traced ~workload ~seed:sim_seed ~refs ops
    else
      Harness.measure_untraced ~workload ~seed:sim_seed ~refs
        ~after_pass:(fun () -> ignore (setups ~from_start:false))
        ~seconds ops
  in
  let failures = Harness.failures r in
  List.iter
    (fun (f : Harness.failure) ->
      Printf.printf "FAILED %s: %s\n" f.Harness.op f.Harness.reason)
    failures;
  let metrics =
    if trace then begin
      (try Sys.mkdir out 0o755 with Sys_error _ -> ());
      let path =
        Filename.concat out
          (Printf.sprintf "trace-%s-seed%d.json"
             (Ops.workload_name workload) seed)
      in
      Obs.Json.to_file path (Harness.trace_json ~workload ~seed:sim_seed r);
      Printf.printf "wrote %s\n" path;
      List.map
        (fun (name, unit) -> (name, unit, List.assoc name r.Harness.values))
        Harness.per_layer
    end
    else
      let v =
        ("setup_s", Harness.median !times) :: r.Harness.values
      in
      List.map
        (fun (name, unit) -> (name, unit, List.assoc name v))
        Harness.end_to_end
  in
  Printf.printf
    "workload %s, seed %d (simulation seed %d), pass wall times: %s s\n"
    (Ops.workload_name workload) seed sim_seed
    (String.concat " "
       (List.map
          (fun (label, p) -> Printf.sprintf "%s %.3f" label (Harness.wall p))
          r.Harness.passes));
  print_endline
    (Obs.Json.to_string
       (result_json
          ~correct:(not (List.exists (fun f -> f.Harness.mismatch) failures))
          ~failed:(List.length failures)
          ~attempted:(Harness.attempted r) metrics))

let gen_refs ~workloads =
  let old = match Refs.load refs_path with Ok r -> r | Error _ -> [] in
  let _, baseline = setup () in
  let fresh =
    List.map
      (fun w ->
        let ops = Ops.ops ~baseline w in
        let by_seed =
          Array.to_list Ops.seeds
          |> List.sort_uniq compare
          |> List.map (fun seed ->
                 let p = Harness.run_pass ~workload:w ~seed ops in
                 List.iter
                   (fun (f : Harness.failure) ->
                     Printf.printf "%s seed %d: %s failed: %s\n%!"
                       (Ops.workload_name w) seed f.Harness.op f.Harness.reason)
                   p.Harness.failures;
                 Printf.printf "%s seed %d: %d digests\n%!"
                   (Ops.workload_name w) seed
                   (List.length p.Harness.digests);
                 (seed, p.Harness.digests))
        in
        (Ops.workload_name w, by_seed))
      workloads
  in
  let merged =
    fresh
    @ List.filter (fun (w, _) -> not (List.mem_assoc w fresh)) old
    |> List.sort compare
  in
  Obs.Json.to_file refs_path (Refs.to_json merged);
  Printf.printf "wrote %s\n" refs_path

let () =
  let workload = ref None and seed = ref 0 and seconds = ref 30. in
  let trace = ref 0 and gen = ref false in
  let set_workload s =
    match Ops.workload_of_string s with
    | Some w -> workload := Some w
    | None -> raise (Arg.Bad ("unknown workload " ^ s))
  in
  Arg.parse
    [
      ("--workload", Arg.String set_workload, "W reproduce | observe | wide");
      ("--seed", Arg.Set_int seed, "N input seed (selects a simulation seed)");
      ("--seconds", Arg.Set_float seconds, "S measure for about S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--gen-refs", Arg.Set gen, " re-record the reference digests");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !gen then
    gen_refs
      ~workloads:(match !workload with Some w -> [ w ] | None -> Ops.workloads)
  else
    match !workload with
    | None -> die "--workload is required"
    | Some workload ->
        if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
        measure ~workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
