(** Calendar-queue event scheduler: the {!Engine}'s event queue.

    Same contract as {!Eheap} — a priority queue of events totally ordered
    by [(at, seq)] — but with O(1) amortized push/pop for events inside the
    current time window. Events are binned into fixed-width buckets; the
    bucket being consumed is drained into a small binary heap (restoring
    exact order), and far-future events overflow into a fallback heap until
    the window is rebuilt around them. The pop sequence is bit-identical to
    {!Eheap} for any push sequence. *)

type 'a t

val create : ?dummy:'a -> unit -> 'a t
(** [dummy] plays the same retention-hygiene role as in {!Eheap.create}:
    both internal heaps overwrite vacated slots with it. *)

val push : 'a t -> at:Time.t -> seq:int -> 'a -> unit
val pop : 'a t -> (Time.t * int * 'a) option
val pop_exn : 'a t -> 'a
val next_at : 'a t -> Time.t
val peek_time : 'a t -> Time.t option
val size : 'a t -> int
val length : 'a t -> int
val max_length : 'a t -> int
val is_empty : 'a t -> bool
