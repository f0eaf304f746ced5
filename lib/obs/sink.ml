type t = {
  metrics : Metrics.t;
  spans : Span.t;
  causal : Causal.t;
  trace : Sim.Trace.t;
  mutable post_ms : float;
}

let create ?(trace_capacity = 4096) () =
  {
    metrics = Metrics.create ();
    spans = Span.create ();
    causal = Causal.create ();
    trace = Sim.Trace.create ~capacity:trace_capacity ();
    post_ms = 0.;
  }

let chrome_trace t =
  Export.chrome_trace ~spans:[ t.spans ] ~causal:[ t.causal ]
    ~traces:[ t.trace ] ()
