open Sim

type t = { cores : Hw.Topology.core list; cpus : (Hw.Topology.core * Cpu.t) list }

let create eng params ~cores ?(quantum = Time.ms 1) () =
  if cores = [] then invalid_arg "Sched.create: no cores";
  let sorted = List.sort_uniq compare cores in
  if List.length sorted <> List.length cores then
    invalid_arg "Sched.create: duplicate cores";
  let cpus =
    List.map (fun c -> (c, Cpu.create eng params ~core:c ~quantum)) sorted
  in
  { cores = sorted; cpus }

let cores t = t.cores
let owns t core = List.mem_assoc core t.cpus

let cpu t core =
  match List.assoc_opt core t.cpus with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Sched.cpu: core %d not owned" core)

let pick_core t =
  let best =
    List.fold_left
      (fun acc (core, cpu) ->
        let l = Cpu.assigned cpu in
        match acc with
        | Some (_, bl) when bl <= l -> acc
        | _ -> Some (core, l))
      None t.cpus
  in
  match best with Some (core, _) -> core | None -> assert false

let assign t core = Cpu.assign (cpu t core)
let unassign t core = Cpu.unassign (cpu t core)
let compute_on t core dt = Cpu.compute (cpu t core) dt
