(** Passive per-kernel health tracking (see the interface for the state
    machine). Fed by RPC outcomes; never sends a message itself. *)

open Sim

type state = Healthy | Suspect | Drained

let state_name = function
  | Healthy -> "healthy"
  | Suspect -> "suspect"
  | Drained -> "drained"

type config = {
  window : Time.t;
  suspect_misses : int;
  drain_misses : int;
  recover_successes : int;
  probe_interval : Time.t;
  readmit_prob : float;
}

let default_config =
  {
    window = Time.us 500;
    suspect_misses = 2;
    drain_misses = 3;
    recover_successes = 2;
    probe_interval = Time.us 250;
    readmit_prob = 0.5;
  }

type transition = {
  tr_at : Time.t;
  tr_kernel : int;
  tr_from : state;
  tr_to : state;
}

type entry = {
  mutable st : state;
  misses : Time.t Queue.t;  (** deadline-miss timestamps inside [window]. *)
  mutable successes : int;  (** consecutive successes while Suspect. *)
  mutable probation : bool;  (** Suspect entered via a probe readmission. *)
  mutable drained_since : Time.t;  (** valid while [st = Drained]. *)
  mutable drained_total : Time.t;
}

type t = {
  eng : Engine.t;
  cfg : config;
  rng : Prng.t;  (** probe draws only; independent of the engine stream. *)
  entries : entry array;
  mutable log : transition list;  (** newest first. *)
  mutable observers : (transition -> unit) list;
  mutable stopped : bool;
}

let create ?(config = default_config) eng ~kernels =
  {
    eng;
    cfg = config;
    rng = Prng.create ~seed:(Engine.seed eng lxor 0x48454C54 (* "HELT" *));
    entries =
      Array.init kernels (fun _ ->
          {
            st = Healthy;
            misses = Queue.create ();
            successes = 0;
            probation = false;
            drained_since = 0;
            drained_total = 0;
          });
    log = [];
    observers = [];
    stopped = false;
  }

let config t = t.cfg
let state t k = t.entries.(k).st
let available t k = t.entries.(k).st <> Drained
let probation t k = t.entries.(k).probation
let on_transition t f = t.observers <- t.observers @ [ f ]
let transitions t = List.rev t.log

let drained_ns t k =
  let e = t.entries.(k) in
  e.drained_total
  + (if e.st = Drained then Time.sub (Engine.now t.eng) e.drained_since else 0)

let prune t e ~now =
  let horizon = Time.sub now t.cfg.window in
  while
    (not (Queue.is_empty e.misses)) && Queue.peek e.misses < horizon
  do
    ignore (Queue.pop e.misses)
  done

(* Probe timer: while [k] stays drained, draw a readmission every
   [probe_interval]. A successful draw readmits to probation; traffic then
   decides (one success -> recovery counting resumes, one miss -> drained
   again). Draws come from [t.rng], so the schedule is seed-deterministic. *)
let rec schedule_probe t k =
  if t.cfg.readmit_prob > 0. then
    Engine.schedule t.eng ~after:t.cfg.probe_interval (fun () ->
        let e = t.entries.(k) in
        if (not t.stopped) && e.st = Drained then
          if Prng.float t.rng 1.0 < t.cfg.readmit_prob then begin
            e.probation <- true;
            e.successes <- 0;
            Queue.clear e.misses;
            transition t k Suspect
          end
          else schedule_probe t k)

and transition t k st' =
  let e = t.entries.(k) in
  let now = Engine.now t.eng in
  let tr = { tr_at = now; tr_kernel = k; tr_from = e.st; tr_to = st' } in
  (match (e.st, st') with
  | Drained, _ ->
      e.drained_total <- e.drained_total + Time.sub now e.drained_since
  | _, Drained ->
      e.drained_since <- now;
      schedule_probe t k
  | _ -> ());
  e.st <- st';
  t.log <- tr :: t.log;
  List.iter (fun f -> f tr) t.observers

let note_success t ~kernel =
  if not t.stopped then begin
    let e = t.entries.(kernel) in
    match e.st with
    | Drained -> ()  (* a late response; the probe owns readmission. *)
    | Healthy -> prune t e ~now:(Engine.now t.eng)
    | Suspect ->
        e.probation <- false;
        e.successes <- e.successes + 1;
        if e.successes >= t.cfg.recover_successes then begin
          e.successes <- 0;
          Queue.clear e.misses;
          transition t kernel Healthy
        end
  end

let note_failure t ~kernel =
  if not t.stopped then begin
    let e = t.entries.(kernel) in
    let now = Engine.now t.eng in
    match e.st with
    | Drained -> ()
    | Suspect when e.probation ->
        (* The probe's trial traffic failed: back to drained at once. *)
        e.probation <- false;
        transition t kernel Drained
    | Healthy | Suspect ->
        e.successes <- 0;
        prune t e ~now;
        Queue.push now e.misses;
        let misses = Queue.length e.misses in
        if e.st = Healthy && misses >= t.cfg.suspect_misses then
          transition t kernel Suspect;
        if e.st = Suspect && misses >= t.cfg.drain_misses then
          transition t kernel Drained
  end

let stop t = t.stopped <- true
