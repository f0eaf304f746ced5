(** A sink bundles one of everything the instrumentation can feed: a metrics
    registry, a span recorder, a causal (message send/deliver) event log and
    a bounded trace ring. Create one, attach it to a machine or cluster,
    run, then export. *)

type t = {
  metrics : Metrics.t;
  spans : Span.t;
  causal : Causal.t;
  trace : Sim.Trace.t;
  mutable post_ms : float;
      (** Host wall-clock of the post-processing applied to this sink after
          its run (instrumentation-health metrics and the SLO summary); 0
          until a runner sets it. Host time, so informational only: never
          part of the metrics, digests or [diff]. *)
}

val create : ?trace_capacity:int -> unit -> t
(** [trace_capacity] bounds the event ring (default 4096). *)

val chrome_trace : t -> Json.t
(** {!Export.chrome_trace} over this sink's spans and trace ring. *)
