(* Tests for the workload generators and OS adapters: the same program must
   complete correctly on both OS models, and the experiment registry must
   produce tables. *)

open Sim
module P = Workloads.Loads.Make (Workloads.Adapters.Popcorn_os)
module S = Workloads.Loads.Make (Workloads.Adapters.Smp_os)

let mk_popcorn () =
  let m = Hw.Machine.create ~sockets:2 ~cores_per_socket:8 () in
  (m, Popcorn.Cluster.boot m ~kernels:4 ~cores_per_kernel:4)

let mk_smp () =
  let m = Hw.Machine.create ~sockets:2 ~cores_per_socket:8 () in
  (m, Smp.Smp_os.boot m)

let run_popcorn f =
  let machine, cluster = mk_popcorn () in
  Engine.spawn machine.Hw.Machine.eng (fun () ->
      let proc =
        Popcorn.Api.start_process cluster ~origin:0 (fun th ->
            f machine.Hw.Machine.eng th)
      in
      Popcorn.Api.wait_exit cluster proc);
  Engine.run machine.Hw.Machine.eng

let run_smp f =
  let machine, sys = mk_smp () in
  Engine.spawn machine.Hw.Machine.eng (fun () ->
      let proc =
        Smp.Smp_api.start_process sys (fun th -> f machine.Hw.Machine.eng th)
      in
      Smp.Smp_api.wait_exit sys proc);
  Engine.run machine.Hw.Machine.eng

let test_spawn_storm_completes () =
  run_popcorn (fun eng th -> P.spawn_storm eng th ~spawners:4 ~per_spawner:5);
  run_smp (fun eng th -> S.spawn_storm eng th ~spawners:4 ~per_spawner:5)

let test_mmap_stress_completes () =
  run_popcorn (fun eng th -> P.mmap_stress eng th ~workers:4 ~ops:5 ~pages:2);
  run_smp (fun eng th -> S.mmap_stress eng th ~workers:4 ~ops:5 ~pages:2)

let test_futex_pingpong_completes () =
  run_popcorn (fun eng th -> P.futex_pingpong eng th ~pairs:2 ~rounds:5);
  run_smp (fun eng th -> S.futex_pingpong eng th ~pairs:2 ~rounds:5)

let test_apps_complete () =
  run_popcorn (fun eng th -> P.app_cpu_bound eng th ~workers:4 ~iters:3);
  run_popcorn (fun eng th -> P.app_mm_bound eng th ~workers:4 ~iters:3);
  run_popcorn (fun eng th -> P.app_sync_bound eng th ~workers:4 ~iters:3);
  run_smp (fun eng th -> S.app_cpu_bound eng th ~workers:4 ~iters:3);
  run_smp (fun eng th -> S.app_mm_bound eng th ~workers:4 ~iters:3);
  run_smp (fun eng th -> S.app_sync_bound eng th ~workers:4 ~iters:3)

let test_mk_workloads_complete () =
  let m = Hw.Machine.create ~sockets:2 ~cores_per_socket:8 () in
  let sys = Multikernel.boot m in
  let eng = m.Hw.Machine.eng in
  let done_count = ref 0 in
  Engine.spawn eng (fun () ->
      ignore
        (Workloads.Mk_workloads.spawn_storm sys eng ~cores:16 ~spawners:2
           ~per_spawner:3 ~on_done:(fun () -> incr done_count)));
  Engine.run eng;
  Engine.spawn eng (fun () ->
      ignore
        (Workloads.Mk_workloads.app_sync_bound sys eng ~cores:16 ~workers:4
           ~iters:3 ~on_done:(fun () -> incr done_count)));
  Engine.run eng;
  Alcotest.(check int) "both finished" 2 !done_count

let test_latch () =
  let eng = Engine.create () in
  let l = Workloads.Latch.create eng 3 in
  let released = ref false in
  Engine.spawn eng (fun () ->
      Workloads.Latch.wait l;
      released := true);
  Engine.schedule eng ~after:1 (fun () -> Workloads.Latch.arrive l);
  Engine.schedule eng ~after:2 (fun () -> Workloads.Latch.arrive l);
  Engine.run eng;
  Alcotest.(check bool) "held" false !released;
  Workloads.Latch.arrive l;
  Engine.run eng;
  Alcotest.(check bool) "released" true !released

(* Experiments are runnable end-to-end in quick mode and yield tables. *)
(* A drained engine must not grow with the number of requests it served:
   experiments keep their engines alive until they end (to sum event
   counts), so per-request state left in the engine — such as one interned
   fiber label per request — is held for the whole run. *)
let drained_engine_words ~requests =
  let machine, cluster = mk_popcorn () in
  let eng = machine.Hw.Machine.eng in
  let disp = Popcorn.Placement.create ~frontend:0 cluster in
  let config =
    {
      Workloads.Server.requests;
      interarrival = (fun _ -> Time.us 20);
      cost_ns = Time.us 10;
      deadline_ns = None;
    }
  in
  Engine.spawn eng (fun () ->
      let s = Workloads.Server.run cluster disp config in
      Alcotest.(check int) "every request served" requests
        s.Workloads.Server.completed);
  Engine.run eng;
  Obj.reachable_words (Obj.repr eng)

let test_server_engine_bounded () =
  let one = drained_engine_words ~requests:500 in
  let four = drained_engine_words ~requests:2000 in
  Alcotest.(check bool)
    (Printf.sprintf "4x requests: %d words vs %d" four one)
    true
    (four <= one + 1024)

let test_registry_quick () =
  Alcotest.(check bool) "has experiments" true
    (List.length Experiments.Registry.all >= 8);
  (* Run the two cheapest to keep the suite fast; the bench exe runs all. *)
  List.iter
    (fun id ->
      match Experiments.Registry.find id with
      | Some e ->
          let tables =
            e.Experiments.Registry.run
              (Experiments.Run_ctx.create ~quick:true ())
          in
          Alcotest.(check bool) (id ^ " produces tables") true (tables <> [])
      | None -> Alcotest.failf "experiment %s missing" id)
    [ "T1"; "T2" ]

let () =
  Alcotest.run "workloads"
    [
      ( "generators",
        [
          Alcotest.test_case "latch" `Quick test_latch;
          Alcotest.test_case "spawn storm" `Quick test_spawn_storm_completes;
          Alcotest.test_case "mmap stress" `Quick test_mmap_stress_completes;
          Alcotest.test_case "futex pingpong" `Quick
            test_futex_pingpong_completes;
          Alcotest.test_case "app classes" `Slow test_apps_complete;
          Alcotest.test_case "multikernel workloads" `Quick
            test_mk_workloads_complete;
          Alcotest.test_case "server engine stays bounded" `Quick
            test_server_engine_bounded;
        ] );
      ( "experiments",
        [ Alcotest.test_case "registry quick run" `Slow test_registry_quick ] );
    ]
