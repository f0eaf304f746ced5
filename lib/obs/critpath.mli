(** Happens-before reconstruction and critical-path analysis.

    Combines a span forest ({!Span}) with the messaging layer's causal
    event log ({!Causal}) into the cross-kernel happens-before DAG of a
    run, then answers two questions about it:

    - {b critical path}: for a root protocol span (e.g. one migration),
      the chain of span / wire segments that accounts for every nanosecond
      of its end-to-end latency. Segments partition the root's window
      exactly: their durations sum to the root's duration.
    - {b self time}: flamegraph-style attribution of each span's own time
      (duration minus nested children and in-flight wire time), rolled up
      per subsystem.

    Analysis works on plain {!ispan} records rather than live
    {!Span.span}s so that the same code path serves both in-process sinks
    and spans parsed back from an exported JSON document. *)

type ispan = {
  sid : int;
  parent : int option;
  kind : string;  (** {!Span.kind_name} of the phase *)
  kernel : int;
  tid : int option;
  run : int;
  start : int;
  stop : int;  (** -1 while open; clamped to end-of-run by the analysis *)
}

val ispans_of_recorder : Span.t -> ispan list
(** Snapshot a live recorder into analysis records (creation order). *)

val ispans_to_json : ispan list -> Json.t
(** Array of span objects; the "spans" section of a results document. *)

val ispans_of_json : Json.t -> ispan list
(** Tolerant inverse of {!ispans_to_json}: malformed entries are skipped,
    so truncated documents still decode. *)

type index
(** The happens-before DAG of one data set: spans by id, parent edges,
    message sends/deliveries/links, and each run's end time (the clamp for
    unclosed spans). Build it once per data set and share it between every
    query below; each costs a pass over the trace at most. *)

val build_index : spans:ispan list -> causal:Causal.event list -> index
(** O(spans + causal events). Spans and messages are keyed by (run, id);
    the first delivery of a message wins. *)

val duration : index -> ispan -> int
(** A span's duration with an unclosed span clamped to the end of its run.
    For a root this is {!critical_path}'s [total_ns]: the window does not
    depend on the path, so ranking roots needs no path at all. *)

val roots : index -> kind:string -> ispan list
(** Top-level spans (no parent) of [kind], in creation order. *)

type seg = {
  label : string;
      (** ["kind\@k<kernel>"] for span segments, ["wire k<src>->k<dst>"]
          for time a message was in flight. *)
  on_wire : bool;
  seg_start : int;
  seg_stop : int;
}

type path = { root : ispan; total_ns : int; segs : seg list }
(** [total_ns] equals the root span's (clamped) duration and equals the
    sum of all segment durations — the partition is exact. *)

val critical_path : index -> root:ispan -> path
(** Critical path through the happens-before component reachable from
    [root]: children via parent edges, messages via their sending span,
    remote spans via the message that caused them ({!Causal.Link}).
    Every elementary time slice of the root's window is attributed to the
    innermost active interval (latest start wins; wire beats its sender),
    and consecutive slices with the same owner merge into one segment.
    Costs O(W log W) for a component of W spans and messages. *)

type ival = {
  i_start : int;
  i_stop : int;
  i_wire : bool;
  i_id : int;
  i_label : string;
}
(** One interval competing for the slices of a root's window: a span of
    the component or a delivered message's time on the wire. *)

val segments : w_start:int -> w_stop:int -> ival list -> seg list
(** The partition step of {!critical_path}: cut the window from
    [w_start] to [w_stop] at every interval edge inside it, give each
    slice to the highest-ranked interval covering it whole — rank is
    (start, wire over span, id), assumed distinct — drop slices nobody
    covers, and merge adjacent slices with the same owner. A sweep over the sorted edges keeps the
    covering intervals ordered by rank: O(n log n) in the intervals. *)

val subsystem : string -> string
(** Map a span-kind name to its owning subsystem: migration phases to
    ["migration"], page faults to ["coherence"], futexes to ["futex"],
    thread-group create/import to ["thread_group"], task listing to
    ["ssi"]; unknown kinds map to themselves, wire time to ["msg"]. *)

val self_times : index -> (string * int) list
(** Per-subsystem self time over every run in the input: each span's
    duration minus its children and its own messages' wire time (clipped
    to the span), plus all delivered messages' wire time under ["msg"].
    Sorted by descending time, then name; concurrent spans each count
    their own self time in full. *)
