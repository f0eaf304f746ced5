(** Single-system-image services.

    The replicated-kernel OS presents one Linux-like system: globally
    unique pids/tids (via partitioned allocation), a global task listing
    (a /proc-style view assembled by broadcast), and location-transparent
    thread lookup (any tid resolves to its hosting kernel). *)

open Types
module K = Kernelmodel

let handle_task_list cluster (kernel : kernel) ~src ~cause ~ticket =
  let sp =
    sp_begin cluster ~cause ~kernel:kernel.kid (Obs.Span.Custom "task_list")
  in
  Proto_util.kernel_work cluster (Sim.Time.ns 500);
  let tids =
    Hashtbl.fold
      (fun tid (task : K.Task.t) acc -> (tid, task.K.Task.tgid) :: acc)
      kernel.tasks []
    |> List.sort compare
  in
  sp_end cluster sp;
  send ?span:sp cluster ~src:kernel.kid ~dst:src
    (Task_list_resp { ticket; tids })

(** Global task listing, as a ps/procfs reader on [kernel] would see it:
    queries every other kernel in parallel and merges. *)
let global_tasks cluster (kernel : kernel) : (K.Ids.tid * pid) list =
  let eng = eng cluster in
  let sp =
    sp_begin cluster ~kernel:kernel.kid (Obs.Span.Custom "ssi_task_list")
  in
  let others =
    List.filter (fun k -> k <> kernel.kid)
      (List.init (nkernels cluster) Fun.id)
  in
  let acc = ref [] in
  let g = Msg.Gather.create eng ~expected:(List.length others) in
  List.iter
    (fun dst ->
      let ticket =
        Msg.Rpc.register kernel.rpc (fun resp ->
            (match resp with
            | Task_list_resp { tids; _ } -> acc := tids @ !acc
            | _ -> assert false);
            Msg.Gather.ack g)
      in
      send ?span:sp cluster ~src:kernel.kid ~dst (Task_list_req { ticket }))
    others;
  Msg.Gather.wait g;
  let local =
    Hashtbl.fold
      (fun tid (task : K.Task.t) l -> (tid, task.K.Task.tgid) :: l)
      kernel.tasks []
  in
  let r = List.sort compare (local @ !acc) in
  sp_end cluster sp;
  r

(** Block until every thread of the group has exited (waitpid-ish). *)
let wait_group_exit cluster (proc : process) =
  if proc.live_threads > 0 then
    Sim.Waitq.wait (eng cluster) proc.exit_waiters
