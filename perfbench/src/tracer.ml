(** The benchmark's own wall-clock spans.

    Every stage the benchmark calls into (simulate, SLO post-processing,
    render, export, parse, analyze, diff, reference check) runs inside a
    span: name, start, stop and the enclosing span. Spans stay in memory;
    stage totals are sums over them, and the traced run writes them out
    once the measurement is over. Recording one span costs two clock reads
    and one small allocation, so spans are kept in every pass. *)

type span = {
  id : int;
  parent : int;  (** -1 for a top-level span *)
  name : string;
  start_ns : int;
  stop_ns : int;
}

type t = {
  mutable next : int;
  mutable open_ : int list;
  mutable closed : span list;  (** most recently closed first *)
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let create () = { next = 0; open_ = []; closed = [] }

let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let start_ns = now_ns () in
  Fun.protect f ~finally:(fun () ->
      let stop_ns = now_ns () in
      t.open_ <- List.tl t.open_;
      t.closed <- { id; parent; name; start_ns; stop_ns } :: t.closed)

let spans t = List.sort (fun a b -> compare a.id b.id) t.closed
let seconds s = float_of_int (s.stop_ns - s.start_ns) /. 1e9

(** Total seconds spent in spans called [name]. *)
let total t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. seconds s else acc)
    0. t.closed

let to_json t =
  Obs.Json.Arr
    (List.map
       (fun s ->
         Obs.Json.Obj
           [
             ("id", Obs.Json.Int s.id);
             ("parent", Obs.Json.Int s.parent);
             ("name", Obs.Json.Str s.name);
             ("start_ns", Obs.Json.Int s.start_ns);
             ("stop_ns", Obs.Json.Int s.stop_ns);
           ])
       (spans t))
