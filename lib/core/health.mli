(** Passive per-kernel health tracking for placement decisions.

    The cluster has no active health prober: health is inferred from the
    outcomes the messaging layer already produces (an RPC that timed out
    after its retries is a missed deadline; a response that arrived is a
    success) — the passive-health-check semantics of an L7 load balancer
    (nginx's [max_fails]/[fail_timeout]) transplanted to kernels.

    Per kernel, a three-state machine:

    {v
      Healthy --[suspect_misses misses in window]--> Suspect
      Suspect --[drain_misses misses in window]----> Drained
      Suspect --[recover_successes successes]------> Healthy
      Drained --[probe readmits, seeded draw]------> Suspect (probation)
      Suspect(probation) --[one miss]--------------> Drained
    v}

    [Healthy] and [Suspect] kernels receive traffic; [Drained] kernels do
    not. While drained, a probe timer fires every [probe_interval]; each
    firing readmits the kernel to probation with probability
    [readmit_prob], drawn from the tracker's {e own} seeded stream (keyed
    off the engine seed): recovery timing is deterministic per seed and
    drawing it never perturbs the simulation's other random draws. *)

type state = Healthy | Suspect | Drained

val state_name : state -> string

type config = {
  window : Sim.Time.t;  (** sliding window over which misses are counted. *)
  suspect_misses : int;  (** misses in window: Healthy -> Suspect. *)
  drain_misses : int;  (** misses in window: Suspect -> Drained. *)
  recover_successes : int;
      (** consecutive successes: Suspect -> Healthy. *)
  probe_interval : Sim.Time.t;
      (** while Drained, how often a readmission draw happens. *)
  readmit_prob : float;
      (** per-probe probability of readmission to probation; 0 disables
          probing entirely (a drained kernel stays drained). *)
}

val default_config : config
(** 500us window, suspect after 2, drain after 3, recover after 2,
    probe every 250us with readmit probability 0.5. *)

(** One recorded state transition (the health event log). *)
type transition = {
  tr_at : Sim.Time.t;
  tr_kernel : int;
  tr_from : state;
  tr_to : state;
}

type t

val create : ?config:config -> Sim.Engine.t -> kernels:int -> t
(** All kernels start [Healthy]. The probe stream is seeded with a salt of
    the engine's seed, so one simulation seed reproduces the whole probe
    schedule. *)

val config : t -> config
val state : t -> int -> state

val available : t -> int -> bool
(** May this kernel receive traffic? ([Healthy] or [Suspect].) *)

val probation : t -> int -> bool
(** Is this kernel [Suspect] by way of a probe readmission (rather than by
    missed deadlines)? Callers should send {e trial} traffic — a little,
    not a flood: the kernel was just drained and one more miss re-drains
    it. Cleared by the first success. *)

val note_success : t -> kernel:int -> unit
(** An RPC to [kernel] completed in time. *)

val note_failure : t -> kernel:int -> unit
(** An RPC to [kernel] missed its deadline (timed out / gave up). *)

val on_transition : t -> (transition -> unit) -> unit
(** Install an observer called on every state change (after the log entry
    is recorded). Multiple observers compose; installation order is the
    call order. *)

val transitions : t -> transition list
(** Every transition so far, oldest first. *)

val drained_ns : t -> int -> int
(** Cumulative simulated time [kernel] has spent [Drained] (an open
    drained interval is counted up to now). *)

val stop : t -> unit
(** Cancel probing: pending probe timers become no-ops, so the simulation
    can quiesce even if a kernel is still drained. State stops changing. *)
