(** Single-system-image services: globally unique ids (by partitioned
    allocation), a global /proc-style task listing, and group exit
    waiting. *)

open Types

val global_tasks : cluster -> kernel -> (Kernelmodel.Ids.tid * pid) list
(** ps-style listing as a reader on [kernel] sees it: parallel query of
    every other kernel, merged and sorted. *)

val wait_group_exit : cluster -> process -> unit
(** Park until every thread of the group has exited (waitpid-ish). *)

val handle_task_list :
  cluster -> kernel -> src:int -> cause:int -> ticket:int -> unit
(** Message handler (wired by [Cluster.dispatch]); the responder span is
    causally linked to the delivered request via [cause]. *)
