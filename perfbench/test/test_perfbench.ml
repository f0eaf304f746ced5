(* Tests of the benchmark harness itself, on operations small enough to
   run in a few seconds. *)

open Perfbench

let baseline =
  lazy
    (match Obs.Json.of_file "../../bench/baseline.json" with
    | Ok j -> j
    | Error e -> failwith e)

let exp id =
  match Experiments.Registry.find id with
  | Some e -> e
  | None -> failwith id

(* Small operations of each kind: two experiments as [reproduce] runs
   them, and two [wide] cells. *)
let small_ops () =
  [
    Ops.experiment_op ~quick:true (exp "R3");
    Ops.experiment_op ~quick:true (exp "T2");
    Ops.cell_op { Ops.app = Ops.Comm; kernels = 16; iters = 2 };
    Ops.cell_op { Ops.app = Ops.Mm; kernels = 16; iters = 1 };
  ]

let pass ?refs ?fail_op seed =
  Harness.run_pass ~workload:Ops.Reproduce ~seed ?refs ?fail_op (small_ops ())

let refs_of (p : Harness.pass) : Refs.t =
  [ (Ops.workload_name Ops.Reproduce, [ (1, p.Harness.digests) ]) ]

let metric_names () =
  let ok c =
    (c >= 'A' && c <= 'Z')
    || (c >= 'a' && c <= 'z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '.' || c = '-'
  in
  let names = List.map fst (Harness.end_to_end @ Harness.per_layer) in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " is [A-Za-z0-9_.-]+") true
        (n <> "" && String.for_all ok n))
    names;
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names))

(* BENCHMARK.json declares exactly the metrics the harness reports, with
   the same units. *)
let benchmark_json () =
  let doc =
    match Obs.Json.of_file "../../BENCHMARK.json" with
    | Ok j -> j
    | Error e -> failwith e
  in
  let declared key =
    match Ops.member key doc with
    | Some (Obs.Json.Arr l) ->
        List.map
          (fun m ->
            match (Ops.member "name" m, Ops.member "unit" m) with
            | Some (Obs.Json.Str n), Some (Obs.Json.Str u) -> (n, u)
            | _ -> failwith "metric without name or unit")
          l
    | _ -> failwith ("BENCHMARK.json has no " ^ key)
  in
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end_to_end" Harness.end_to_end (declared "end_to_end");
  Alcotest.check pairs "per_layer" Harness.per_layer (declared "per_layer")

let seed_mapping () =
  Alcotest.(check int) "seed 0 is the default seed"
    Experiments.Run_ctx.default_seed (Ops.sim_seed 0);
  let mapped = List.init 8 Ops.sim_seed in
  Alcotest.(check int) "eight distinct simulation seeds" 8
    (List.length (List.sort_uniq compare mapped));
  Alcotest.(check int) "negative seeds map too" (Ops.sim_seed 7)
    (Ops.sim_seed (-1))

let same_seed_same_digests () =
  let a = pass 1 and b = pass 1 in
  Alcotest.(check (list string)) "no failures" []
    (List.map (fun f -> f.Harness.op) a.Harness.failures);
  Alcotest.(check (list (pair string string))) "identical digests"
    a.Harness.digests b.Harness.digests;
  Alcotest.(check (list int)) "identical engine seeds"
    a.Harness.c.Ops.engine_seeds b.Harness.c.Ops.engine_seeds

let seed_reaches_every_machine () =
  let a = pass 1 and b = pass 2 in
  let sa = a.Harness.c.Ops.engine_seeds and sb = b.Harness.c.Ops.engine_seeds in
  Alcotest.(check bool) "machines were booted" true (sa <> []);
  Alcotest.(check int) "same machines" (List.length sa) (List.length sb);
  List.iter2
    (fun x y ->
      Alcotest.(check bool) "every machine's seed moves" true (x <> y))
    sa sb;
  Alcotest.(check bool) "different inputs give different digests" true
    (a.Harness.digests <> b.Harness.digests)

let corrupted_reference () =
  let good = pass 1 in
  let corrupt =
    match good.Harness.digests with
    | (id, _) :: rest -> (id, String.make 32 '0') :: rest
    | [] -> Alcotest.fail "no digests"
  in
  let refs = [ (Ops.workload_name Ops.Reproduce, [ (1, corrupt) ]) ] in
  let p = pass ~refs 1 in
  Alcotest.(check int) "every operation attempted" 4 p.Harness.attempted;
  Alcotest.(check int) "every operation ran to the end" 4
    (List.length p.Harness.digests);
  (match p.Harness.failures with
  | [ f ] ->
      Alcotest.(check string) "the corrupted one failed" "R3" f.Harness.op;
      Alcotest.(check bool) "as a mismatch" true f.Harness.mismatch
  | l -> Alcotest.failf "%d failures, expected 1" (List.length l));
  let clean = pass ~refs:(refs_of good) 1 in
  Alcotest.(check int) "true references pass" 0
    (List.length clean.Harness.failures)

let synthetic_failure () =
  let good = pass 1 in
  let p = pass ~refs:(refs_of good) ~fail_op:"comm-k16" 1 in
  (match p.Harness.failures with
  | [ f ] ->
      Alcotest.(check string) "the failing cell" "comm-k16" f.Harness.op;
      Alcotest.(check bool) "not a mismatch" false f.Harness.mismatch
  | l -> Alcotest.failf "%d failures, expected 1" (List.length l));
  Alcotest.(check (list string)) "the others still ran"
    [ "R3"; "T2"; "mm-k16" ]
    (List.map fst p.Harness.digests)

let observe_ops baseline =
  [ Ops.observed_op ~baseline:(Ops.baseline_doc baseline "R3") (exp "R3") ]

let seed42 = Experiments.Run_ctx.default_seed

(* The observe stages plus the unattributed rest add up to the pass's
   wall time, and R3 reproduces the committed baseline. *)
let observe_stages_sum () =
  let ops = observe_ops (Lazy.force baseline) in
  let r =
    Harness.measure_traced ~workload:Ops.Observe ~seed:seed42 ~refs:[] ops
  in
  let v name = List.assoc name r.Harness.values in
  List.iter (fun (name, _) -> ignore (v name)) Harness.per_layer;
  (* There are no references here: only the baseline check can fail, and
     it must not. *)
  List.iter
    (fun (f : Harness.failure) ->
      if f.Harness.reason <> "no reference for this seed" then
        Alcotest.failf "%s: %s" f.Harness.op f.Harness.reason)
    (Harness.failures r);
  let stages =
    List.fold_left
      (fun acc s -> acc +. v ("obs." ^ s ^ "_s"))
      0. Harness.obs_stages
  in
  let wall = Harness.wall (List.assoc "untraced" r.Harness.passes) in
  Alcotest.(check bool) "unattributed >= 0" true
    (v "bench.unattributed_s" >= 0.);
  Alcotest.(check (float 1e-9)) "stages + unattributed = wall" wall
    (stages +. v "bench.unattributed_s");
  Alcotest.(check bool) "every stage timed" true
    (List.for_all (fun s -> v ("obs." ^ s ^ "_s") > 0.) Harness.obs_stages);
  Alcotest.(check bool) "exports counted" true (v "obs.export_bytes" > 0.)

let corrupted_baseline () =
  let b = Lazy.force baseline in
  (* Same document with the R3 metrics section emptied. *)
  let strip = function
    | Obs.Json.Obj kv when List.assoc_opt "id" kv = Some (Obs.Json.Str "R3") ->
        Obs.Json.Obj
          (List.map
             (fun (k, x) ->
               if k = "metrics" then (k, Obs.Json.Obj []) else (k, x))
             kv)
    | x -> x
  in
  let corrupted =
    match b with
    | Obs.Json.Obj kv ->
        Obs.Json.Obj
          (List.map
             (function
               | "experiments", Obs.Json.Arr l ->
                   ("experiments", Obs.Json.Arr (List.map strip l))
               | x -> x)
             kv)
    | x -> x
  in
  let p =
    Harness.run_pass ~workload:Ops.Observe ~seed:seed42 (observe_ops corrupted)
  in
  match p.Harness.failures with
  | [ f ] ->
      Alcotest.(check bool) "reported as a mismatch" true f.Harness.mismatch
  | l -> Alcotest.failf "%d failures, expected 1" (List.length l)

let () =
  Alcotest.run "perfbench"
    [
      ( "metrics",
        [
          Alcotest.test_case "metric names" `Quick metric_names;
          Alcotest.test_case "BENCHMARK.json matches" `Quick benchmark_json;
        ] );
      ( "seeds",
        [
          Alcotest.test_case "seed mapping" `Quick seed_mapping;
          Alcotest.test_case "same seed, same digests" `Quick
            same_seed_same_digests;
          Alcotest.test_case "seed reaches every machine" `Quick
            seed_reaches_every_machine;
        ] );
      ( "failures",
        [
          Alcotest.test_case "corrupted reference" `Quick corrupted_reference;
          Alcotest.test_case "synthetic failing operation" `Quick
            synthetic_failure;
          Alcotest.test_case "corrupted baseline" `Quick corrupted_baseline;
        ] );
      ( "observe",
        [
          Alcotest.test_case "stages sum to wall time" `Quick
            observe_stages_sum;
        ]
      );
    ]
