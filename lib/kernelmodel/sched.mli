open Sim

(** Per-kernel scheduler: a set of cores with load-aware placement. *)

type t

val create :
  Engine.t ->
  Hw.Params.t ->
  cores:Hw.Topology.core list ->
  ?quantum:Time.t ->
  unit ->
  t
(** [quantum] defaults to 1 ms. [cores] must be non-empty and distinct. *)

val cores : t -> Hw.Topology.core list

val owns : t -> Hw.Topology.core -> bool

val cpu : t -> Hw.Topology.core -> Cpu.t
(** @raise Invalid_argument if the core is not owned by this scheduler. *)

val pick_core : t -> Hw.Topology.core
(** Core with the fewest assigned threads (ties broken by lowest id) —
    placement for a new or arriving task. The caller must follow up with
    {!assign}. *)

val assign : t -> Hw.Topology.core -> unit
val unassign : t -> Hw.Topology.core -> unit

val compute_on : t -> Hw.Topology.core -> Time.t -> unit
(** Consume CPU time on the given core (timeshared, see {!Cpu.compute}). *)
