(** Thread location: which kernel hosts a tid right now.

    Simulation-level read of the per-kernel task tables; the real system
    does a local pid-hash walk plus origin forwarding. Used by the kill
    path. *)

open Types

val locate : cluster -> tid:tid -> int option
