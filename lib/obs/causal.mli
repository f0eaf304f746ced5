(** Typed causal events of the messaging layer.

    Every [Msg.Transport] message carries a unique id within its (transport,
    run); three event kinds record the cross-kernel happens-before edges:

    - [Send]: a message left a kernel, optionally annotated with the id of
      the protocol span it was sent from (the span "carried" on the wire);
    - [Deliver]: the destination worker handed it to the handler;
    - [Link]: a span on the destination was opened to process it.

    Chaining [span --Send--> message --Deliver/Link--> span] reconstructs
    the happens-before DAG of a run; {!Critpath} walks it. Recording never
    sleeps and never touches the engine RNG, so instrumented runs are
    bit-identical in simulated time to uninstrumented ones. *)

type event =
  | Send of {
      id : int;
      run : int;
      src : int;
      dst : int;
      at : Sim.Time.t;
      bytes : int;
      from_span : int option;
    }
  | Deliver of { id : int; run : int; dst : int; at : Sim.Time.t }
  | Link of { id : int; run : int; span : int }

type t

val create : unit -> t

val new_run : t -> unit
(** Call once per machine boot sharing this recorder (mirrors
    [Span.new_run]); events from different runs never share message ids. *)

val emit_send :
  t ->
  id:int ->
  src:int ->
  dst:int ->
  at:Sim.Time.t ->
  bytes:int ->
  from_span:int option ->
  unit

val emit_deliver : t -> id:int -> dst:int -> at:Sim.Time.t -> unit

val link : t -> id:int -> span:int -> unit
(** Message [id] caused the opening of span [span] on the receiving
    kernel. *)

val events : t -> event list
(** All events in emission order. *)

val count : t -> int

val to_json : t -> Json.t
(** The "causal" section of a results document:
    [{"format":"causal-flat-v1","data":[...]}], where [data] is one flat
    integer array holding every event in emission order. Each event is a
    kind tag followed by that kind's fixed fields:
    - [0] send: id, run, src, dst, at, bytes, from_span ([-1] for none);
    - [1] deliver: id, run, dst, at;
    - [2] link: id, run, span. *)

val merged_json : (t * int) list -> Json.t
(** One {!to_json} section holding several recorders' events, recorder
    after recorder, each recorder's run numbers shifted by its offset. *)

val event_of_json : Json.t -> event option
(** Decode one event object ([{"ev":"send"|"deliver"|"link", ...}], the
    shape of causal sections and of Chrome-trace flow-event args written
    before the flat encoding); [None] on anything malformed. *)

val events_of_json : Json.t -> event list
(** Inverse of {!to_json}; also reads the older array of event objects.
    Tolerant: a flat section decodes every complete event and stops at the
    first truncated or malformed one; in an object array, malformed or
    unknown entries are skipped. Anything else decodes to []. *)
