(** Exporters for recorded observability data. *)

val chrome_trace :
  ?spans:Span.t list ->
  ?causal:Causal.t list ->
  ?traces:Sim.Trace.t list ->
  unit ->
  Json.t
(** Chrome [trace_event] JSON (load in {{:https://ui.perfetto.dev}Perfetto}
    or [chrome://tracing]). Each span becomes a complete ("X") event on a
    process track named after its (run, kernel) pair, with simulated
    nanoseconds mapped to trace microseconds; exact-nanosecond
    [start_ns]/[stop_ns] args let [popcornsim analyze] reconstruct the span
    forest losslessly. Spans left unclosed by the workload are drawn to the
    end of their run and flagged with an [unclosed] arg (analysis reads
    them back as open). Each message becomes a pair of flow events ("s" at
    the send, "f" at the delivery, cat "causal") linking the sending track
    to the delivering track, with no args; the causal log itself is written
    once, as a top-level "causal" member in {!Causal.to_json}'s flat
    encoding. Trace-ring entries become global instant ("i") events on pid
    0. When several recorders are passed, their run numbers are offset so
    tracks, span [run] args and causal runs never collide; causal
    recorders pair positionally with span recorders. *)
