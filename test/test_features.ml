(* Tests for the extended OS services: exit_group, kill, migration
   prefetch, heterogeneous ISAs, the VFS, and protocol robustness under
   injected message-processing jitter. *)

open Popcorn
module K = Kernelmodel

let page = 4096

let mk ?(kernels = 4) ?opts ?seed () =
  let machine =
    Hw.Machine.create ?seed ~sockets:2 ~cores_per_socket:(kernels * 2) ()
  in
  (machine, Cluster.boot ?opts machine ~kernels ~cores_per_kernel:4)

let run machine = Sim.Engine.run machine.Hw.Machine.eng
let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* --- exit_group --- *)

let test_exit_group_terminates_all () =
  let machine, cluster = mk () in
  let side_effects = ref 0 in
  let observed_live = ref (-1) in
  Sim.Engine.spawn machine.Hw.Machine.eng (fun () ->
      let proc =
        Api.start_process cluster ~origin:0 (fun th ->
            (* Workers across kernels, looping forever on compute. *)
            for k = 0 to 3 do
              ignore
                (Api.spawn th ~target:k (fun child ->
                     while true do
                       Api.compute child (Sim.Time.us 100);
                       incr side_effects
                     done))
            done;
            Api.compute th (Sim.Time.ms 1);
            Api.exit_group th)
      in
      Api.wait_exit cluster proc;
      observed_live := proc.Types.live_threads);
  run machine;
  Alcotest.(check int) "group fully dead" 0 !observed_live;
  Alcotest.(check bool) "workers ran, then stopped" true (!side_effects > 0);
  (* Nobody is left in any kernel's task table for that group. *)
  Array.iter
    (fun (k : Types.kernel) ->
      Alcotest.(check int)
        (Printf.sprintf "kernel %d task table empty" k.Types.kid)
        0
        (Hashtbl.length k.Types.tasks))
    cluster.Types.kernels

let test_exit_group_from_remote_member () =
  let machine, cluster = mk () in
  let finished = ref false in
  Sim.Engine.spawn machine.Hw.Machine.eng (fun () ->
      let proc =
        Api.start_process cluster ~origin:0 (fun th ->
            (* A remote member (not the origin) pulls the trigger. *)
            ignore
              (Api.spawn th ~target:2 (fun child ->
                   Api.compute child (Sim.Time.us 50);
                   Api.exit_group child));
            while true do
              Api.compute th (Sim.Time.us 100)
            done)
      in
      Api.wait_exit cluster proc;
      finished := true);
  run machine;
  Alcotest.(check bool) "exit observed" true !finished

(* --- kill --- *)

let test_kill_single_thread () =
  let machine, cluster = mk () in
  let victim_cycles = ref 0 and sibling_cycles = ref 0 in
  Sim.Engine.spawn machine.Hw.Machine.eng (fun () ->
      let proc =
        Api.start_process cluster ~origin:0 (fun th ->
            let victim =
              Api.spawn th ~target:3 (fun child ->
                  while true do
                    Api.compute child (Sim.Time.us 50);
                    incr victim_cycles
                  done)
            in
            let _sibling =
              Api.spawn th ~target:1 (fun child ->
                  for _ = 1 to 20 do
                    Api.compute child (Sim.Time.us 50);
                    incr sibling_cycles
                  done)
            in
            Api.compute th (Sim.Time.us 500);
            Alcotest.(check bool) "victim found" true (Api.kill th ~tid:victim);
            (* A second kill finds nothing. *)
            Api.compute th (Sim.Time.us 200);
            Alcotest.(check bool) "already dead" false
              (Api.kill th ~tid:victim))
      in
      Api.wait_exit cluster proc);
  run machine;
  Alcotest.(check bool) "victim stopped early" true (!victim_cycles < 20);
  Alcotest.(check int) "sibling unharmed" 20 !sibling_cycles

(* --- migration prefetch --- *)

let post_migration_touch_time ~prefetch =
  let opts =
    { Types.default_options with Types.migration_prefetch = prefetch }
  in
  let machine, cluster = mk ~opts () in
  let result = ref 0 in
  Sim.Engine.spawn machine.Hw.Machine.eng (fun () ->
      let proc =
        Api.start_process cluster ~origin:0 (fun th ->
            let vma = ok (Api.mmap th ~len:(8 * page) ~prot:K.Vma.prot_rw) in
            (* Build a working set of 8 pages. *)
            for i = 0 to 7 do
              ok (Api.write th ~addr:(vma.K.Vma.start + (i * page)))
            done;
            ignore (Api.migrate th ~dst:2);
            let eng = Types.eng cluster in
            let t0 = Sim.Engine.now eng in
            for i = 0 to 7 do
              ignore (ok (Api.read th ~addr:(vma.K.Vma.start + (i * page))))
            done;
            result := Sim.Engine.now eng - t0)
      in
      Api.wait_exit cluster proc);
  run machine;
  !result

let test_prefetch_accelerates_post_migration () =
  let cold = post_migration_touch_time ~prefetch:0 in
  let warm = post_migration_touch_time ~prefetch:8 in
  Alcotest.(check bool)
    (Printf.sprintf "prefetch helps (%dns vs %dns)" cold warm)
    true
    (warm * 3 < cold)

(* --- robustness: coherence invariants under message jitter --- *)

let jittered_workload ~seed =
  let machine, cluster = mk ~seed () in
  Msg.Transport.set_jitter cluster.Types.fabric ~max_extra:(Sim.Time.us 20);
  let the_pid = ref 0 in
  let rng = Sim.Prng.create ~seed in
  Sim.Engine.spawn machine.Hw.Machine.eng (fun () ->
      let proc =
        Api.start_process cluster ~origin:0 (fun th ->
            the_pid := Api.pid th;
            let shared = ok (Api.mmap th ~len:(8 * page) ~prot:K.Vma.prot_rw) in
            let latch = Workloads.Latch.create (Types.eng cluster) 6 in
            for _ = 1 to 6 do
              let target = Sim.Prng.int rng 4 in
              ignore
                (Api.spawn th ~target (fun child ->
                     for _ = 1 to 15 do
                       let addr =
                         shared.K.Vma.start + (Sim.Prng.int rng 8 * page)
                       in
                       match Sim.Prng.int rng 3 with
                       | 0 -> ignore (ok (Api.read child ~addr))
                       | 1 -> ok (Api.write child ~addr)
                       | _ -> ignore (Api.migrate child ~dst:(Sim.Prng.int rng 4))
                     done;
                     Workloads.Latch.arrive latch))
            done;
            Workloads.Latch.wait latch)
      in
      Api.wait_exit cluster proc);
  run machine;
  (cluster, !the_pid)

let prop_coherence_under_jitter =
  QCheck.Test.make ~name:"coherence invariants hold under message jitter"
    ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      let cluster, pid = jittered_workload ~seed in
      (* Reuse the invariant suite from the coherence tests: single writer
         + read coherence, inlined here to avoid a test-lib dependency. *)
      let holders : (int, (int * bool) list) Hashtbl.t = Hashtbl.create 64 in
      Array.iter
        (fun (k : Types.kernel) ->
          match Types.find_replica k pid with
          | None -> ()
          | Some r ->
              K.Page_table.iter r.Types.pt (fun ~vpn pte ->
                  let cur =
                    Option.value ~default:[] (Hashtbl.find_opt holders vpn)
                  in
                  Hashtbl.replace holders vpn
                    ((k.Types.kid, pte.K.Page_table.writable) :: cur)))
        cluster.Types.kernels;
      Hashtbl.iter
        (fun _vpn l ->
          let writers = List.filter snd l in
          assert (List.length writers <= 1);
          assert (not (writers <> [] && List.length l > 1)))
        holders;
      true)

(* --- heterogeneous-ISA migration --- *)

let test_heterogeneous_migration_cost () =
  let migrate_with ~opts =
    let machine, cluster = mk ~opts () in
    let total = ref 0 in
    Sim.Engine.spawn machine.Hw.Machine.eng (fun () ->
        let proc =
          Api.start_process cluster ~origin:0 (fun th ->
              let b = Api.migrate th ~dst:2 in
              total := b.Migration.total_ns)
        in
        Api.wait_exit cluster proc);
    run machine;
    !total
  in
  let homo = migrate_with ~opts:Types.default_options in
  let het =
    migrate_with
      ~opts:
        {
          Types.default_options with
          Types.arch_of_kernel =
            (fun k -> if k >= 2 then Types.Arm64 else Types.X86_64);
        }
  in
  (* The ABI transformation is ~25us of extra source-side work. *)
  Alcotest.(check bool)
    (Printf.sprintf "cross-ISA pays transformation (%d vs %d)" homo het)
    true
    (het > homo + 20_000)

(* --- option matrix: invariants hold under every configuration --- *)

let workload_with_opts ~opts ~seed =
  let machine, cluster = mk ~opts ~seed () in
  let rng = Sim.Prng.create ~seed in
  let the_pid = ref 0 in
  Sim.Engine.spawn machine.Hw.Machine.eng (fun () ->
      let proc =
        Api.start_process cluster ~origin:0 (fun th ->
            the_pid := Api.pid th;
            let shared = ok (Api.mmap th ~len:(8 * page) ~prot:K.Vma.prot_rw) in
            let latch = Workloads.Latch.create (Types.eng cluster) 6 in
            for _ = 1 to 6 do
              ignore
                (Api.spawn th ~target:(Sim.Prng.int rng 4) (fun child ->
                     for _ = 1 to 12 do
                       let addr =
                         shared.K.Vma.start + (Sim.Prng.int rng 8 * page)
                       in
                       match Sim.Prng.int rng 3 with
                       | 0 -> ignore (ok (Api.read child ~addr))
                       | 1 -> ok (Api.write child ~addr)
                       | _ -> ignore (Api.migrate child ~dst:(Sim.Prng.int rng 4))
                     done;
                     Workloads.Latch.arrive latch))
            done;
            Workloads.Latch.wait latch)
      in
      Api.wait_exit cluster proc);
  run machine;
  (cluster, !the_pid)

let check_single_writer cluster pid =
  let holders : (int, (int * bool) list) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (k : Types.kernel) ->
      match Types.find_replica k pid with
      | None -> ()
      | Some r ->
          K.Page_table.iter r.Types.pt (fun ~vpn pte ->
              let cur =
                Option.value ~default:[] (Hashtbl.find_opt holders vpn)
              in
              Hashtbl.replace holders vpn
                ((k.Types.kid, pte.K.Page_table.writable) :: cur)))
    cluster.Types.kernels;
  Hashtbl.iter
    (fun vpn l ->
      let writers = List.filter snd l in
      if List.length writers > 1 then
        Alcotest.failf "page %d has multiple writers" vpn;
      if writers <> [] && List.length l > 1 then
        Alcotest.failf "page %d writable and replicated" vpn)
    holders

let test_invariants_across_option_matrix () =
  let base = Types.default_options in
  List.iteri
    (fun i opts ->
      let cluster, pid = workload_with_opts ~opts ~seed:(100 + i) in
      check_single_writer cluster pid)
    [
      { base with Types.read_replication = false };
      { base with Types.use_dummy_pool = false };
      { base with Types.migration_prefetch = 8 };
      {
        base with
        Types.read_replication = false;
        Types.migration_prefetch = 4;
        Types.use_dummy_pool = false;
      };
    ]

(* --- VFS / remote syscalls --- *)

let test_vfs_shared_fds_across_kernels () =
  let machine, cluster = mk () in
  Sim.Engine.spawn machine.Hw.Machine.eng (fun () ->
      let proc =
        Api.start_process cluster ~origin:0 (fun th ->
            let fd = ok (Api.open_file th ~path:"/data/log") in
            Alcotest.(check int) "writes all" 4096
              (ok (Api.file_write th ~fd ~len:4096));
            let latch = Workloads.Latch.create (Types.eng cluster) 1 in
            ignore
              (Api.spawn th ~target:3 (fun child ->
                   (* Same fd, other kernel: the cursor is shared (it sits
                      at EOF after the parent's write) — rewind first. *)
                   Alcotest.(check int) "shared cursor at EOF" 0
                     (ok (Api.file_read child ~fd ~len:8192));
                   ignore (ok (Api.file_seek child ~fd ~pos:0));
                   Alcotest.(check int) "remote read sees data" 4096
                     (ok (Api.file_read child ~fd ~len:8192));
                   Alcotest.(check int) "EOF" 0
                     (ok (Api.file_read child ~fd ~len:4096));
                   Alcotest.(check int) "remote append" 100
                     (ok (Api.file_write child ~fd ~len:100));
                   Workloads.Latch.arrive latch));
            Workloads.Latch.wait latch;
            ok (Api.close_file th ~fd);
            (match Api.file_read th ~fd ~len:1 with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "read after close succeeded");
            (* Reopen: contents persist (write appended at the shared
               cursor, which was at 4096 after the remote read). *)
            let fd2 = ok (Api.open_file th ~path:"/data/log") in
            Alcotest.(check int) "file grew to 4196" 4196
              (ok (Api.file_read th ~fd:fd2 ~len:1_000_000)))
      in
      Api.wait_exit cluster proc);
  run machine;
  Alcotest.(check bool) "ops counted" true (Vfs.total_ops cluster >= 8)

let test_vfs_remote_costs_more () =
  let latency ~target =
    let machine, cluster = mk () in
    let result = ref 0 in
    Sim.Engine.spawn machine.Hw.Machine.eng (fun () ->
        let proc =
          Api.start_process cluster ~origin:0 (fun th ->
              let fd = ok (Api.open_file th ~path:"/f") in
              ignore (ok (Api.file_write th ~fd ~len:4096));
              let latch = Workloads.Latch.create (Types.eng cluster) 1 in
              ignore
                (Api.spawn th ~target (fun child ->
                     let eng = Types.eng cluster in
                     let t0 = Sim.Engine.now eng in
                     ignore (ok (Api.file_read child ~fd ~len:4096));
                     result := Sim.Engine.now eng - t0;
                     Workloads.Latch.arrive latch));
              Workloads.Latch.wait latch)
        in
        Api.wait_exit cluster proc);
    run machine;
    !result
  in
  let local = latency ~target:0 and remote = latency ~target:3 in
  Alcotest.(check bool)
    (Printf.sprintf "remote syscall slower (%d vs %d)" local remote)
    true
    (remote > local + 2000)

(* --- tracing --- *)

let test_cluster_tracing () =
  let machine, cluster = mk () in
  let tr = Sim.Trace.create () in
  Cluster.observe ~tracer:tr cluster;
  Sim.Engine.spawn machine.Hw.Machine.eng (fun () ->
      let proc =
        Api.start_process cluster ~origin:0 (fun th ->
            let vma = ok (Api.mmap th ~len:page ~prot:K.Vma.prot_rw) in
            ok (Api.write th ~addr:vma.K.Vma.start);
            ignore (Api.migrate th ~dst:1);
            ignore (ok (Api.read th ~addr:vma.K.Vma.start)))
      in
      Api.wait_exit cluster proc);
  run machine;
  let cats =
    List.sort_uniq compare
      (List.map (fun e -> e.Sim.Trace.cat) (Sim.Trace.events tr))
  in
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " traced") true (List.mem c cats))
    [ "mm"; "fault"; "migrate" ]

(* Everything at once: jittered messaging, kills, forks, migrations and
   memory traffic — the state at quiescence must still satisfy the
   single-writer invariant and leave no task-table stragglers. *)
let prop_chaos =
  QCheck.Test.make ~name:"chaos: kills+forks+jitter keep invariants" ~count:8
    QCheck.(int_bound 10_000)
    (fun seed ->
      let machine, cluster = mk ~seed () in
      Msg.Transport.set_jitter cluster.Types.fabric
        ~max_extra:(Sim.Time.us 10);
      let rng = Sim.Prng.create ~seed in
      let the_pid = ref 0 in
      Sim.Engine.spawn machine.Hw.Machine.eng (fun () ->
          let proc =
            Api.start_process cluster ~origin:0 (fun th ->
                the_pid := Api.pid th;
                let shared =
                  ok (Api.mmap th ~len:(8 * page) ~prot:K.Vma.prot_rw)
                in
                let latch = Workloads.Latch.create (Types.eng cluster) 5 in
                let tids = ref [] in
                for _ = 1 to 5 do
                  let tid =
                    Api.spawn th
                      ~target:(Sim.Prng.int rng 4)
                      (fun child ->
                        (try
                           for _ = 1 to 12 do
                             let addr =
                               shared.K.Vma.start
                               + (Sim.Prng.int rng 8 * page)
                             in
                             match Sim.Prng.int rng 4 with
                             | 0 -> ignore (ok (Api.read child ~addr))
                             | 1 -> ok (Api.write child ~addr)
                             | 2 ->
                                 ignore
                                   (Api.migrate child
                                      ~dst:(Sim.Prng.int rng 4))
                             | _ ->
                                 let c =
                                   Api.fork child (fun grand ->
                                       ignore (Api.read grand ~addr))
                                 in
                                 Api.wait_exit child.Api.cluster c
                           done
                         with Api.Killed -> ());
                        Workloads.Latch.arrive latch)
                  in
                  tids := tid :: !tids
                done;
                (* Kill one worker mid-flight; its latch arrival still
                   happens via the Killed handler above. *)
                Api.compute th (Sim.Time.us 300);
                ignore (Api.kill th ~tid:(List.hd !tids));
                Workloads.Latch.wait latch)
          in
          Api.wait_exit cluster proc);
      run machine;
      (* Single-writer invariant. *)
      let pid = !the_pid in
      let holders : (int, int) Hashtbl.t = Hashtbl.create 64 in
      Array.iter
        (fun (k : Types.kernel) ->
          match Types.find_replica k pid with
          | None -> ()
          | Some r ->
              K.Page_table.iter r.Types.pt (fun ~vpn pte ->
                  if pte.K.Page_table.writable then begin
                    assert (not (Hashtbl.mem holders vpn));
                    Hashtbl.add holders vpn k.Types.kid
                  end))
        cluster.Types.kernels;
      (* No live tasks remain anywhere. *)
      Array.for_all
        (fun (k : Types.kernel) -> Hashtbl.length k.Types.tasks = 0)
        cluster.Types.kernels)

let () =
  Alcotest.run "popcorn-features"
    [
      ( "exit_group",
        [
          Alcotest.test_case "terminates all members" `Quick
            test_exit_group_terminates_all;
          Alcotest.test_case "from a remote member" `Quick
            test_exit_group_from_remote_member;
        ] );
      ("kill", [ Alcotest.test_case "single thread" `Quick test_kill_single_thread ]);
      ( "prefetch",
        [
          Alcotest.test_case "accelerates post-migration touches" `Quick
            test_prefetch_accelerates_post_migration;
        ] );
      ( "heterogeneous",
        [
          Alcotest.test_case "cross-ISA transformation cost" `Quick
            test_heterogeneous_migration_cost;
        ] );
      ( "option-matrix",
        [
          Alcotest.test_case "invariants under every configuration" `Quick
            test_invariants_across_option_matrix;
        ] );
      ( "vfs",
        [
          Alcotest.test_case "shared fds across kernels" `Quick
            test_vfs_shared_fds_across_kernels;
          Alcotest.test_case "remote forwarding costs more" `Quick
            test_vfs_remote_costs_more;
        ] );
      ( "tracing",
        [ Alcotest.test_case "protocol events captured" `Quick test_cluster_tracing ] );
      ( "robustness",
        List.map QCheck_alcotest.to_alcotest
          [ prop_coherence_under_jitter; prop_chaos ] );
    ]
