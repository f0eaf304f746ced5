(** Thread location: which kernel hosts a tid right now.

    Simulation-level read of the per-kernel task tables; the real system
    does a local pid-hash walk plus origin forwarding. Used by the kill
    path. *)

open Types

let locate cluster ~tid =
  let n = nkernels cluster in
  let rec scan k =
    if k >= n then None
    else if Hashtbl.mem (kernel_of cluster k).tasks tid then Some k
    else scan (k + 1)
  in
  scan 0
