(* Event-queue contract suite.

   The engine schedules through one calendar queue (Sim.Calq), whose pop
   order is the total order (at, seq). This file checks that contract two
   ways:

   1. property tests drive the calendar queue — and the binary heap
      (Sim.Eheap) it uses for its front and far bands — through random
      push/pop interleavings against a sorted-list reference model (exact
      (at, seq) tie-breaks, far-future/horizon-clamp times included);
   2. deterministic spot-checks of the calendar's awkward corners,
      including a retention test for dummy-slot clearing: popped payloads
      must be collectable (the engine relies on this — stale event
      closures used to pin whole machine graphs).

   Plus the metrics-interning satellites: same-name-different-kernel cells
   stay distinct, and Metrics.to_json is byte-identical to a string-keyed
   reference implementation over a recorded operation sequence. *)

open Sim

(* ---------- reference model: sorted association list ---------- *)

module Model = struct
  (* Events ordered by (at, seq); both keys strictly increase along the
     list, making every pop unambiguous. *)
  type 'a t = { mutable items : (int * int * 'a) list }

  let create () = { items = [] }

  let push t ~at ~seq v =
    let rec ins = function
      | [] -> [ (at, seq, v) ]
      | (a, s, _) :: _ as rest when at < a || (at = a && seq < s) ->
          (at, seq, v) :: rest
      | hd :: rest -> hd :: ins rest
    in
    t.items <- ins t.items

  let pop t =
    match t.items with
    | [] -> None
    | hd :: rest ->
        t.items <- rest;
        Some hd
end

(* The slice of the queue interface the model check drives; both
   [Calq] and [Eheap] provide it. *)
module type QUEUE = sig
  type 'a t

  val create : ?dummy:'a -> unit -> 'a t
  val push : 'a t -> at:Time.t -> seq:int -> 'a -> unit
  val pop : 'a t -> (Time.t * int * 'a) option
  val is_empty : 'a t -> bool
end

(* Op sequences mix pushes (with a time generator) and pops. *)
let apply_ops (module Q : QUEUE) times_of_ops =
  let q = Q.create () in
  let model = Model.create () in
  let seq = ref 0 in
  let ok = ref true in
  List.iter
    (fun op ->
      match op with
      | Some at ->
          Q.push q ~at ~seq:!seq !seq;
          Model.push model ~at ~seq:!seq !seq;
          incr seq
      | None -> if Q.pop q <> Model.pop model then ok := false)
    times_of_ops;
  (* Drain both to the end: the tail must agree too, and the queue must
     report empty exactly when the model does. *)
  let rec drain () =
    let a = Q.pop q and b = Model.pop model in
    if a <> b then ok := false else if a <> None then drain ()
  in
  drain ();
  !ok && Q.is_empty q

(* Time generator: mostly near-horizon values with occasional far-future
   and max_int-adjacent outliers, so calendar rewindowing and horizon
   clamping are exercised, not just the front band. *)
let gen_time =
  QCheck.Gen.(
    frequency
      [
        (8, int_bound 1_000);
        (3, map (fun x -> x * 1009) (int_bound 10_000));
        (2, map (fun x -> x * 1_000_003) (int_bound 100_000));
        (1, map (fun x -> max_int - x) (int_bound 1_000));
      ])

let gen_ops =
  QCheck.Gen.(
    list
      (frequency
         [ (3, map Option.some gen_time); (2, return None) ]))

let arb_ops =
  QCheck.make gen_ops
    ~print:
      (QCheck.Print.list (function
        | Some at -> Printf.sprintf "push@%d" at
        | None -> "pop"))

let prop_vs_model name queue =
  QCheck.Test.make ~name ~count:300 arb_ops (fun ops -> apply_ops queue ops)

(* Deterministic spot-checks of the calendar's awkward corners. *)

let show_item = function
  | None -> "empty"
  | Some (a, s, _) -> Printf.sprintf "(%d,%d)" a s

let test_same_instant_fifo () =
  let q = Calq.create () in
  for seq = 0 to 99 do
    Calq.push q ~at:42 ~seq seq
  done;
  for expect = 0 to 99 do
    match Calq.pop q with
    | Some (42, s, v) when s = expect && v = expect -> ()
    | got ->
        Alcotest.failf "same-instant pop %d mismatch: %s" expect
          (show_item got)
  done

let test_horizon_clamp () =
  (* Timestamps near max_int force the calendar's window arithmetic to
     clamp instead of overflowing; order must survive. *)
  let q = Calq.create () in
  let times = [ max_int - 1; 5; max_int; 0; max_int - 7; 3 ] in
  List.iteri (fun seq at -> Calq.push q ~at ~seq seq) times;
  let sorted = List.sort compare (List.mapi (fun seq at -> (at, seq)) times) in
  List.iter
    (fun (at, seq) ->
      match Calq.pop q with
      | Some (a, s, _) when a = at && s = seq -> ()
      | got -> Alcotest.failf "expected (%d,%d), got %s" at seq (show_item got))
    sorted;
  Alcotest.(check bool) "drained" true (Calq.is_empty q)

let test_interleaved_rewindow () =
  (* Pop partway into the window, then push both behind the consumed
     front and into the far future: the calendar routes the former into
     its ordered front heap and the latter through a rewindow; the pop
     stream must still be globally (at, seq)-sorted. *)
  let q = Calq.create () in
  let seq = ref 0 in
  let push at =
    Calq.push q ~at ~seq:!seq ();
    incr seq
  in
  List.iter push [ 10; 20; 30; 40_000; 50_000 ];
  (match Calq.pop q with
  | Some (10, _, _) -> ()
  | _ -> Alcotest.fail "first pop");
  (* Behind the consumed band and far beyond the current horizon. *)
  List.iter push [ 11; 15; 9_000_000; 25 ];
  let rec drain acc =
    match Calq.pop q with
    | None -> List.rev acc
    | Some (at, _, _) -> drain (at :: acc)
  in
  Alcotest.(check (list int))
    "global order"
    [ 11; 15; 20; 25; 30; 40_000; 50_000; 9_000_000 ]
    (drain [])

let test_dummy_slot_clearing () =
  (* Payloads popped from a queue created with ~dummy must be
     collectable immediately: no internal slot (front heap, bucket, far
     heap) may retain them. This is what keeps executed engine closures
     from pinning machine graphs. *)
  let n = 64 in
  let weak = Weak.create n in
  let q = Calq.create ~dummy:(Bytes.create 0) () in
  for i = 0 to n - 1 do
    let payload = Bytes.make 16 'p' in
    Weak.set weak i (Some payload);
    (* Spread across bands: near, bucketed, far. *)
    Calq.push q ~at:(i * 1_000_003) ~seq:i payload
  done;
  for _ = 1 to n do
    ignore (Calq.pop_exn q)
  done;
  Alcotest.(check bool) "drained" true (Calq.is_empty q);
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check weak i then incr live
  done;
  Alcotest.(check int) "retained payloads" 0 !live

let test_next_at_matches_peek () =
  let q = Calq.create () in
  Alcotest.(check int) "empty sentinel" (-1) (Calq.next_at q);
  Calq.push q ~at:17 ~seq:0 ();
  Calq.push q ~at:5 ~seq:1 ();
  Alcotest.(check int) "min" 5 (Calq.next_at q);
  Alcotest.(check (option int)) "peek agrees" (Some 5) (Calq.peek_time q);
  ignore (Calq.pop_exn q);
  Alcotest.(check int) "after pop" 17 (Calq.next_at q)

(* ---------- metrics interning ---------- *)

let test_interned_cells_distinct () =
  let m = Obs.Metrics.create () in
  (* One name, three scopes: global, kernel 0, kernel 7. Interning maps
     them all to one name id; the cells must stay distinct. *)
  Obs.Metrics.add m "migrations" 5;
  Obs.Metrics.incr m ~kernel:0 "migrations";
  Obs.Metrics.add m ~kernel:7 "migrations" 3;
  Obs.Metrics.incr m ~kernel:7 "migrations";
  Alcotest.(check int) "global" 5 (Obs.Metrics.counter m "migrations");
  Alcotest.(check int) "k0" 1 (Obs.Metrics.counter m ~kernel:0 "migrations");
  Alcotest.(check int) "k7" 4 (Obs.Metrics.counter m ~kernel:7 "migrations");
  (* Handles resolve to the same distinct cells. *)
  let h0 = Obs.Metrics.counter_handle m ~kernel:0 "migrations" in
  let h7 = Obs.Metrics.counter_handle m ~kernel:7 "migrations" in
  Obs.Metrics.handle_incr h0;
  Obs.Metrics.handle_add h7 10;
  Alcotest.(check int) "k0 via handle" 2
    (Obs.Metrics.counter m ~kernel:0 "migrations");
  Alcotest.(check int) "k7 via handle" 14
    (Obs.Metrics.counter m ~kernel:7 "migrations");
  (* Row order: global scope sorts before per-kernel scopes. *)
  let keys = List.map fst (Obs.Metrics.rows m) in
  Alcotest.(check bool)
    "rows ordered (name, None) < (name, Some k)" true
    (keys
    = [
        ("migrations", None); ("migrations", Some 0); ("migrations", Some 7);
      ])

(* A faithful string-keyed reference registry — the pre-interning
   implementation: one Hashtbl over (name, kernel option), read out by
   sorting the keys. Drives the byte-identity check below. *)
module String_keyed = struct
  type cell =
    | C of int ref
    | G of float ref
    | H of Stats.Histogram.t

  type t = (string * int option, cell) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let cell t key mk =
    match Hashtbl.find_opt t key with
    | Some c -> c
    | None ->
        let c = mk () in
        Hashtbl.add t key c;
        c

  let add t ?kernel name n =
    match cell t (name, kernel) (fun () -> C (ref 0)) with
    | C r -> r := !r + n
    | _ -> assert false

  let set_gauge t ?kernel name x =
    match cell t (name, kernel) (fun () -> G (ref 0.)) with
    | G r -> r := x
    | _ -> assert false

  let observe t ?kernel name x =
    match cell t (name, kernel) (fun () -> H (Stats.Histogram.create ()))
    with
    | H h -> Stats.Histogram.add h x
    | _ -> assert false

  let to_json (t : t) =
    let open Obs.Json in
    let rows =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []
      |> List.sort (fun (ka, _) (kb, _) -> compare ka kb)
    in
    let scope = function None -> Null | Some k -> Int k in
    let entry extra ((name, kernel), _) =
      Obj (("name", Str name) :: ("kernel", scope kernel) :: extra)
    in
    let counters, gauges, hists =
      List.fold_left
        (fun (cs, gs, hs) ((_, v) as row) ->
          match v with
          | C r -> (entry [ ("value", Int !r) ] row :: cs, gs, hs)
          | G r -> (cs, entry [ ("value", Float !r) ] row :: gs, hs)
          | H h ->
              ( cs,
                gs,
                entry
                  [
                    ("count", Int (Stats.Histogram.count h));
                    ("mean", Float (Stats.Histogram.mean h));
                    ("p50", Float (Stats.Histogram.median h));
                    ("p99", Float (Stats.Histogram.p99 h));
                    ("p999", Float (Stats.Histogram.p999 h));
                    ("max", Float (Stats.Histogram.max h));
                  ]
                  row
                :: hs ))
        ([], [], []) rows
    in
    Obj
      [
        ("counters", Arr (List.rev counters));
        ("gauges", Arr (List.rev gauges));
        ("histograms", Arr (List.rev hists));
      ]
end

let test_to_json_byte_identical () =
  (* A seeded op sequence over a realistic name/kernel space, applied to
     both registries; the JSON exports must agree byte for byte. The
     names are minted in a scrambled order on purpose — the export is
     sorted, so first-touch order must not leak. *)
  let m = Obs.Metrics.create () in
  let r = String_keyed.create () in
  let rng = Prng.create ~seed:20260808 in
  let names =
    [|
      "msg.sent";
      "msg.latency_ns";
      "sched.load";
      "migrations";
      "coherence.faults";
      "slo.violations";
    |]
  in
  for _ = 1 to 2_000 do
    let name = names.(Prng.int_in rng 0 (Array.length names - 1)) in
    let kernel =
      match Prng.int_in rng 0 3 with
      | 0 -> None
      | k -> Some (k - 1)
    in
    (* Partition kinds by name so both registries agree on the kind. *)
    match name with
    | "msg.latency_ns" ->
        let x = float_of_int (Prng.int_in rng 100 100_000) in
        Obs.Metrics.observe m ?kernel name x;
        String_keyed.observe r ?kernel name x
    | "sched.load" ->
        let x = float_of_int (Prng.int_in rng 0 100) /. 7. in
        Obs.Metrics.set_gauge m ?kernel name x;
        String_keyed.set_gauge r ?kernel name x
    | _ ->
        let n = Prng.int_in rng 1 5 in
        Obs.Metrics.add m ?kernel name n;
        String_keyed.add r ?kernel name n
  done;
  Alcotest.(check string)
    "byte-identical export"
    (Obs.Json.to_string (String_keyed.to_json r))
    (Obs.Json.to_string (Obs.Metrics.to_json m))

let test_kind_mismatch_raises () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "x";
  Alcotest.check_raises "observe on a counter name"
    (Invalid_argument "Metrics: x is a counter, not a histogram") (fun () ->
      Obs.Metrics.observe m "x" 1.)

let () =
  Alcotest.run "calq"
    [
      ( "contract",
        [
          Alcotest.test_case "same-instant fifo" `Quick
            test_same_instant_fifo;
          Alcotest.test_case "horizon clamp near max_int" `Quick
            test_horizon_clamp;
          Alcotest.test_case "interleaved rewindow" `Quick
            test_interleaved_rewindow;
          Alcotest.test_case "dummy-slot clearing" `Quick
            test_dummy_slot_clearing;
          Alcotest.test_case "next_at/peek_time agree" `Quick
            test_next_at_matches_peek;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_vs_model "heap vs sorted-list model" (module Eheap);
            prop_vs_model "calendar vs sorted-list model" (module Calq);
          ] );
      ( "interning",
        [
          Alcotest.test_case "cells distinct across kernels" `Quick
            test_interned_cells_distinct;
          Alcotest.test_case "to_json byte-identical to string-keyed"
            `Quick test_to_json_byte_identical;
          Alcotest.test_case "kind mismatch raises" `Quick
            test_kind_mismatch_raises;
        ] );
    ]
