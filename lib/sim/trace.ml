type event = { at : Time.t; cat : string; msg : string }

type t = {
  capacity : int;
  ring : event option array;
  mutable next : int; (* slot for the next event *)
  mutable total : int;
  mutable retained : int; (* occupied slots, so [count] is O(1) *)
}

let create ?(capacity = 4096) () =
  assert (capacity > 0);
  { capacity; ring = Array.make capacity None; next = 0; total = 0; retained = 0 }

let emit t ~at ~cat msg =
  if t.ring.(t.next) = None then t.retained <- t.retained + 1;
  t.ring.(t.next) <- Some { at; cat; msg };
  t.next <- (t.next + 1) mod t.capacity;
  t.total <- t.total + 1

let events ?cat ?prefix t =
  (* Oldest first: the slot at [next] is the oldest retained event. *)
  let keep e =
    (match cat with Some c -> e.cat = c | None -> true)
    && match prefix with
       | Some p -> String.starts_with ~prefix:p e.cat
       | None -> true
  in
  let out = ref [] in
  for i = 0 to t.capacity - 1 do
    match t.ring.((t.next + i) mod t.capacity) with
    | Some e when keep e -> out := e :: !out
    | Some _ | None -> ()
  done;
  List.rev !out

let count t = t.retained
let total t = t.total

let clear t =
  Array.fill t.ring 0 t.capacity None;
  t.next <- 0;
  t.total <- 0;
  t.retained <- 0
