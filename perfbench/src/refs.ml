(** Reference digests: for every workload, simulation seed and operation,
    the digest of the operation's simulated outputs. Stored as
    [perfbench/refs.json] and regenerated only by [main.exe --gen-refs]. *)

type t = (string * (int * (string * string) list) list) list
(** workload name -> simulation seed -> operation id -> digest *)

let schema = "perfbench-refs-v1"

let find (t : t) ~workload ~seed ~op =
  Option.bind (List.assoc_opt workload t) (fun by_seed ->
      Option.bind (List.assoc_opt seed by_seed) (List.assoc_opt op))

let to_json (t : t) =
  let open Obs.Json in
  Obj
    [
      ("schema", Str schema);
      ( "workloads",
        Obj
          (List.map
             (fun (w, by_seed) ->
               ( w,
                 Obj
                   (List.map
                      (fun (seed, ops) ->
                        ( string_of_int seed,
                          Obj (List.map (fun (op, d) -> (op, Str d)) ops) ))
                      by_seed) ))
             t) );
    ]

let of_json (j : Obs.Json.t) : (t, string) result =
  let open Obs.Json in
  let fail () = Error "malformed references document" in
  match j with
  | Obj kv when List.assoc_opt "schema" kv = Some (Str schema) -> (
      match List.assoc_opt "workloads" kv with
      | Some (Obj ws) -> (
          try
            Ok
              (List.map
                 (fun (w, by_seed) ->
                   match by_seed with
                   | Obj seeds ->
                       ( w,
                         List.map
                           (fun (seed, ops) ->
                             match ops with
                             | Obj ops ->
                                 ( int_of_string seed,
                                   List.map
                                     (function
                                       | op, Str d -> (op, d)
                                       | _ -> raise Exit)
                                     ops )
                             | _ -> raise Exit)
                           seeds )
                   | _ -> raise Exit)
                 ws)
          with Exit | Failure _ -> fail ())
      | _ -> fail ())
  | _ -> fail ()

let load path = Result.bind (Obs.Json.of_file path) of_json
