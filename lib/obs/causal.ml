(* Typed causal events of the messaging layer. Each Transport message gets
   a unique id per (transport, run); the three event kinds are the edges a
   happens-before reconstruction needs: a span sent a message (Send,
   [from_span]), the message reached its destination worker (Deliver), and
   a span on the destination was opened to handle it (Link). Recording is
   append-only and allocation-light; like Span, the recorder never touches
   the engine clock or RNG, so instrumented runs are bit-identical. *)

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

type t = {
  mutable run : int; (* bumped per machine boot, mirrors Span.run *)
  mutable acc : event list; (* newest first; [events] reverses *)
  mutable count : int;
}

let create () = { run = -1; acc = []; count = 0 }
let new_run t = t.run <- t.run + 1
let run t = Stdlib.max 0 t.run

let push t e =
  t.acc <- e :: t.acc;
  t.count <- t.count + 1

let emit_send t ~id ~src ~dst ~at ~bytes ~from_span =
  push t (Send { id; run = run t; src; dst; at; bytes; from_span })

let emit_deliver t ~id ~dst ~at = push t (Deliver { id; run = run t; dst; at })
let link t ~id ~span = push t (Link { id; run = run t; span })
let events t = List.rev t.acc
let count t = t.count

(* --- JSON (rides in the results document and the Chrome trace; see
   DESIGN.md, causal model). One flat integer array in emission order:
   each event is its kind tag followed by that kind's fixed fields, so the
   section repeats no keys and decodes without a per-event object. Tags:
   0 send (id run src dst at bytes from_span, -1 for none), 1 deliver (id
   run dst at), 2 link (id run span). --- *)

let format = "causal-flat-v1"

(* Prepend [e]'s encoding, run shifted by [off], to [tl]. Walking the
   newest-first accumulator and prepending builds the array front to back
   without reversing anything. *)
let cons_event off e tl =
  let i n = Json.Int n in
  match e with
  | Send { id; run; src; dst; at; bytes; from_span } ->
      Json.Int 0 :: i id :: i (run + off) :: i src :: i dst :: i at :: i bytes
      :: i (Option.value from_span ~default:(-1))
      :: tl
  | Deliver { id; run; dst; at } ->
      Json.Int 1 :: i id :: i (run + off) :: i dst :: i at :: tl
  | Link { id; run; span } -> Json.Int 2 :: i id :: i (run + off) :: i span :: tl

let merged_json recorders =
  let data =
    List.fold_right
      (fun (t, off) tl ->
        List.fold_left (fun tl e -> cons_event off e tl) tl t.acc)
      recorders []
  in
  Json.Obj [ ("format", Json.Str format); ("data", Json.Arr data) ]

let to_json t = merged_json [ (t, 0) ]

(* Every complete event of a flat array, stopping at the first truncated
   or malformed one. *)
let[@tail_mod_cons] rec decode_flat = function
  | Json.Int 0 :: Json.Int id :: Json.Int run :: Json.Int src :: Json.Int dst
    :: Json.Int at :: Json.Int bytes :: Json.Int from :: rest ->
      Send
        {
          id;
          run;
          src;
          dst;
          at;
          bytes;
          from_span = (if from < 0 then None else Some from);
        }
      :: decode_flat rest
  | Json.Int 1 :: Json.Int id :: Json.Int run :: Json.Int dst :: Json.Int at
    :: rest ->
      Deliver { id; run; dst; at } :: decode_flat rest
  | Json.Int 2 :: Json.Int id :: Json.Int run :: Json.Int span :: rest ->
      Link { id; run; span } :: decode_flat rest
  | _ -> []

(* Object-shaped events: the causal sections of documents and the flow
   args of traces written before the flat encoding. Decoding is tolerant:
   an analyzer must survive truncated or hand-edited documents, so unknown
   shapes are skipped rather than fatal. *)

let field k = function Json.Obj fs -> List.assoc_opt k fs | _ -> None

let int_field k j =
  match field k j with
  | Some (Json.Int i) -> Some i
  | Some (Json.Float f) -> Some (int_of_float f)
  | _ -> None

let event_of_json j =
  let req k f = Option.bind (int_field k j) f in
  match field "ev" j with
  | Some (Json.Str "send") ->
      req "id" (fun id ->
          req "src" (fun src ->
              req "dst" (fun dst ->
                  req "at" (fun at ->
                      Some
                        (Send
                           {
                             id;
                             run = Option.value ~default:0 (int_field "run" j);
                             src;
                             dst;
                             at;
                             bytes =
                               Option.value ~default:0 (int_field "bytes" j);
                             from_span = int_field "from_span" j;
                           })))))
  | Some (Json.Str "deliver") ->
      req "id" (fun id ->
          req "dst" (fun dst ->
              req "at" (fun at ->
                  Some
                    (Deliver
                       {
                         id;
                         run = Option.value ~default:0 (int_field "run" j);
                         dst;
                         at;
                       }))))
  | Some (Json.Str "link") ->
      req "id" (fun id ->
          req "span" (fun span ->
              Some
                (Link
                   {
                     id;
                     run = Option.value ~default:0 (int_field "run" j);
                     span;
                   })))
  | _ -> None

let events_of_json j =
  match (field "format" j, field "data" j) with
  | Some (Json.Str f), Some (Json.Arr data) when f = format -> decode_flat data
  | _ -> (
      match j with
      | Json.Arr items -> List.filter_map event_of_json items
      | _ -> [])
