(** Bounded in-memory event traces.

    A trace is a ring of (time, category, message) events; producers emit
    cheaply (messages are built only when tracing is enabled by
    construction — the caller holds a [t option]), and consumers dump or
    filter after the run. Used by the OS models to record protocol events
    (migrations, faults, grants), which the Chrome trace export draws as
    instant events. *)

type t

type event = { at : Time.t; cat : string; msg : string }

val create : ?capacity:int -> unit -> t
(** Ring of at most [capacity] (default 4096) most-recent events. *)

val emit : t -> at:Time.t -> cat:string -> string -> unit

val events : ?cat:string -> ?prefix:string -> t -> event list
(** Chronological; [cat] filters by exact category, [prefix] by category
    prefix (both filters apply when both are given). *)

val count : t -> int
(** Events currently retained (≤ capacity); O(1). [total t - count t] is
    how many events the ring has dropped. *)

val total : t -> int
(** Events ever emitted (including ones the ring has dropped). *)

val clear : t -> unit
