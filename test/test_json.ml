(* Differential suite for Obs.Json.

   The serialiser and parser have fast paths (chunked output, digit-wise
   integers, the k/1000 float shortcut, escape-free string slices, direct
   integer accumulation). Their contract is to be indistinguishable from the
   straightforward implementation kept below as [Ref]: the same bytes out
   of [to_string], and the same [Ok] value or the same [Error] message
   (byte offset included) out of [of_string]. This file checks that on
   random documents, on mutated and truncated text, on number literals
   around the native-int limit, and on the real exports of observed runs. *)

(* The plain serialiser and parser the fast ones must match, byte for
   byte and message for message. *)
module Ref = struct
  open Obs.Json

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let float_repr f =
    (* JSON has no NaN/Infinity; map them to null. *)
    if Float.is_nan f || Float.abs f = Float.infinity then None
    else if Float.is_integer f && Float.abs f < 1e15 then
      Some (Printf.sprintf "%.0f" f)
    else Some (Printf.sprintf "%.12g" f)

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> (
        match float_repr f with
        | Some s -> Buffer.add_string buf s
        | None -> Buffer.add_string buf "null")
    | Str s ->
        Buffer.add_char buf '"';
        escape buf s;
        Buffer.add_char buf '"'
    | Arr items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            write buf item)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            escape buf k;
            Buffer.add_string buf "\":";
            write buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 1024 in
    write buf j;
    Buffer.contents buf

  exception Parse_error of string

  type parser_state = { src : string; mutable pos : int }

  let parse_fail st msg =
    raise (Parse_error (Printf.sprintf "%s at byte %d" msg st.pos))

  let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

  let skip_ws st =
    while
      st.pos < String.length st.src
      && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      st.pos <- st.pos + 1
    done

  let expect st c =
    match peek st with
    | Some x when x = c -> st.pos <- st.pos + 1
    | _ -> parse_fail st (Printf.sprintf "expected '%c'" c)

  let parse_literal st word value =
    if
      st.pos + String.length word <= String.length st.src
      && String.sub st.src st.pos (String.length word) = word
    then begin
      st.pos <- st.pos + String.length word;
      value
    end
    else parse_fail st ("expected " ^ word)

  let parse_hex4 st =
    if st.pos + 4 > String.length st.src then parse_fail st "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub st.src st.pos 4) in
    st.pos <- st.pos + 4;
    v

  (* Encode a code point as UTF-8 (we only ever *read* what we wrote, which
     escapes nothing above 0x1f, but accept the full range anyway). *)
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end

  let parse_string st =
    expect st '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek st with
      | None -> parse_fail st "unterminated string"
      | Some '"' -> st.pos <- st.pos + 1
      | Some '\\' -> (
          st.pos <- st.pos + 1;
          match peek st with
          | Some '"' -> Buffer.add_char buf '"'; st.pos <- st.pos + 1; go ()
          | Some '\\' -> Buffer.add_char buf '\\'; st.pos <- st.pos + 1; go ()
          | Some '/' -> Buffer.add_char buf '/'; st.pos <- st.pos + 1; go ()
          | Some 'b' -> Buffer.add_char buf '\b'; st.pos <- st.pos + 1; go ()
          | Some 'f' -> Buffer.add_char buf '\012'; st.pos <- st.pos + 1; go ()
          | Some 'n' -> Buffer.add_char buf '\n'; st.pos <- st.pos + 1; go ()
          | Some 'r' -> Buffer.add_char buf '\r'; st.pos <- st.pos + 1; go ()
          | Some 't' -> Buffer.add_char buf '\t'; st.pos <- st.pos + 1; go ()
          | Some 'u' ->
              st.pos <- st.pos + 1;
              let cp = parse_hex4 st in
              (* Surrogate pair: \uD800-\uDBFF must be followed by a low
                 surrogate; combine them. *)
              let cp =
                if cp >= 0xD800 && cp <= 0xDBFF
                   && st.pos + 6 <= String.length st.src
                   && st.src.[st.pos] = '\\'
                   && st.src.[st.pos + 1] = 'u'
                then begin
                  st.pos <- st.pos + 2;
                  let lo = parse_hex4 st in
                  0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                end
                else cp
              in
              add_utf8 buf cp;
              go ()
          | _ -> parse_fail st "bad escape")
      | Some c ->
          Buffer.add_char buf c;
          st.pos <- st.pos + 1;
          go ()
    in
    go ();
    Buffer.contents buf

  let parse_number st =
    let start = st.pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while
      st.pos < String.length st.src && is_num_char st.src.[st.pos]
    do
      st.pos <- st.pos + 1
    done;
    let lit = String.sub st.src start (st.pos - start) in
    let is_float =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit
    in
    if is_float then
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> parse_fail st ("bad number " ^ lit)
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
          (* Integer literal too large for native int: keep it as a float. *)
          match float_of_string_opt lit with
          | Some f -> Float f
          | None -> parse_fail st ("bad number " ^ lit))

  let rec parse_value st =
    skip_ws st;
    match peek st with
    | None -> parse_fail st "unexpected end of input"
    | Some '{' ->
        st.pos <- st.pos + 1;
        skip_ws st;
        if peek st = Some '}' then begin
          st.pos <- st.pos + 1;
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws st;
            let k = parse_string st in
            skip_ws st;
            expect st ':';
            let v = parse_value st in
            fields := (k, v) :: !fields;
            skip_ws st;
            match peek st with
            | Some ',' -> st.pos <- st.pos + 1; members ()
            | Some '}' -> st.pos <- st.pos + 1
            | _ -> parse_fail st "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        st.pos <- st.pos + 1;
        skip_ws st;
        if peek st = Some ']' then begin
          st.pos <- st.pos + 1;
          Arr []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value st in
            items := v :: !items;
            skip_ws st;
            match peek st with
            | Some ',' -> st.pos <- st.pos + 1; elements ()
            | Some ']' -> st.pos <- st.pos + 1
            | _ -> parse_fail st "expected ',' or ']'"
          in
          elements ();
          Arr (List.rev !items)
        end
    | Some '"' -> Str (parse_string st)
    | Some 't' -> parse_literal st "true" (Bool true)
    | Some 'f' -> parse_literal st "false" (Bool false)
    | Some 'n' -> parse_literal st "null" Null
    | Some ('-' | '0' .. '9') -> parse_number st
    | Some c -> parse_fail st (Printf.sprintf "unexpected '%c'" c)

  let of_string s =
    let st = { src = s; pos = 0 } in
    match parse_value st with
    | v ->
        skip_ws st;
        if st.pos <> String.length s then
          Error (Printf.sprintf "trailing garbage at byte %d" st.pos)
        else Ok v
    | exception Parse_error msg -> Error msg
    | exception Failure msg -> Error msg (* e.g. malformed \u escape *)
end

module J = Obs.Json

(* Structural equality with floats compared by bit pattern, so -0.0 and
   0.0 differ and NaN equals itself. *)
let rec equal a b =
  match (a, b) with
  | J.Float x, J.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | J.Arr xs, J.Arr ys -> List.equal equal xs ys
  | J.Obj xs, J.Obj ys ->
      List.equal (fun (k, x) (l, y) -> String.equal k l && equal x y) xs ys
  | _ -> a = b

let equal_result a b =
  match (a, b) with
  | Ok x, Ok y -> equal x y
  | Error m, Error n -> String.equal m n
  | _ -> false

let show_result = function
  | Ok j -> "Ok " ^ Ref.to_string j
  | Error m -> "Error " ^ m

(* ---------- generators ---------- *)

let gen_int =
  QCheck.Gen.(
    frequency
      [
        (4, int);
        (2, int_range (-1_000_000) 1_000_000);
        (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 1 ]);
        (* Every digit count, both signs. *)
        ( 2,
          map2
            (fun d neg ->
              let v = int_of_float (10. ** float_of_int d) - 1 in
              if neg then -v else v)
            (int_range 0 18) bool );
      ])

let gen_float =
  QCheck.Gen.(
    let millis k = Float.of_int k /. 1000. in
    frequency
      [
        (* Simulated ns -> us, the exporters' common case. *)
        (4, map millis (int_range (-2_000_000) 2_000_000));
        (3, map millis (int_range (-999_999_999_999) 999_999_999_999));
        (* Just past the shortcut's range, and a different rounding. *)
        ( 1,
          map millis
            (oneof
               [
                 int_range 999_999_999_000 1_000_000_001_000;
                 int_range (-1_000_000_001_000) (-999_999_999_000);
                 int_range 1_000_000_000_000 1_000_000_000_000_000;
               ]) );
        ( 1,
          map
            (fun k -> Float.of_int k *. 0.001)
            (int_range (-100_000_000) 100_000_000) );
        ( 1,
          oneofl
            [
              0.; -0.; Float.nan; Float.infinity; Float.neg_infinity; 1e15;
              -1e15; 1e15 -. 1.; -.(1e15 -. 1.); 0.1; 0.01; 0.001; -0.001;
              1e-4; 1e-7; 5e-324; Float.max_float; Float.min_float; 1e21;
              123456789012.5; 999999999.999; -999999999.999; 2.5; 1. /. 3.;
            ] );
        (2, map Int64.float_of_bits ui64);
        (1, map Float.of_int gen_int);
        (1, float);
      ])

(* Bytes that need escaping, UTF-8 (also truncated) and plain text;
   with [~long], sometimes longer than one output chunk. *)
let gen_string ~long =
  QCheck.Gen.(
    let piece =
      frequency
        [
          (6, string_size ~gen:(char_range 'a' 'z') (int_bound 8));
          ( 2,
            map (String.make 1)
              (oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '/'; ' '; '\127' ]) );
          (2, map (fun c -> String.make 1 (Char.chr c)) (int_range 0 31));
          (1, map (fun c -> String.make 1 (Char.chr c)) (int_range 128 255));
          ( 1,
            oneofl
              [ "\xc3\xa9"; "\xf0\x9f\x98\x80"; "\xe2\x9c\x93"; "\xe2\x9c" ] );
        ]
    in
    let short = map (String.concat "") (list_size (int_bound 6) piece) in
    if not long then short
    else
      frequency
        [
          (10, short);
          (* Escapes spread through it. *)
          ( 1,
            map2
              (fun len step ->
                String.init len (fun i ->
                    if i mod step = 0 then '"'
                    else if i mod (step + 3) = 0 then '\001'
                    else Char.chr (97 + (i mod 26))))
              (int_range 65_000 200_000) (int_range 50 5_000) );
        ])

let gen_json ~long =
  QCheck.Gen.(
    let gen_string = gen_string ~long in
    sized_size (int_bound 40)
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (1, return J.Null);
                 (1, map (fun b -> J.Bool b) bool);
                 (3, map (fun i -> J.Int i) gen_int);
                 (4, map (fun f -> J.Float f) gen_float);
                 (3, map (fun s -> J.Str s) gen_string);
               ]
           in
           if n <= 1 then leaf
           else
             frequency
               [
                 (2, leaf);
                 ( 2,
                   map
                     (fun l -> J.Arr l)
                     (list_size (int_bound 6) (self (n / 3))) );
                 ( 2,
                   map
                     (fun l -> J.Obj l)
                     (list_size (int_bound 6)
                        (pair gen_string (self (n / 3)))) );
               ]))

let arb_json = QCheck.make ~print:Ref.to_string (gen_json ~long:true)

(* ---------- writer ---------- *)

let prop_to_string =
  QCheck.Test.make ~name:"to_string == reference" ~count:500 arb_json
    (fun j -> String.equal (J.to_string j) (Ref.to_string j))

let prop_floats =
  QCheck.Test.make ~name:"float text == reference" ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%h") gen_float) (fun f ->
      String.equal (J.to_string (J.Float f)) (Ref.to_string (J.Float f)))

let test_writer_edges () =
  List.iter
    (fun (name, j) ->
      Alcotest.(check string) name (Ref.to_string j) (J.to_string j))
    [
      ("min_int", J.Int min_int);
      ("max_int", J.Int max_int);
      ("negative zero", J.Float (-0.));
      ("zero", J.Float 0.);
      ("nan", J.Float Float.nan);
      ("-inf", J.Float Float.neg_infinity);
      ("smallest millis", J.Float (-0.001));
      ("largest millis", J.Float (999_999_999_999. /. 1000.));
      ("control bytes", J.Str (String.init 32 Char.chr));
      ("empty containers", J.Arr [ J.Obj []; J.Arr []; J.Str "" ]);
    ]

(* Items of every width land on every offset of a chunk boundary. *)
let test_writer_chunk_boundaries () =
  let items =
    List.init 40_000 (fun i ->
        match i mod 5 with
        | 0 -> J.Int (i * 7919)
        | 1 -> J.Float (Float.of_int i /. 1000.)
        | 2 -> J.Str (String.make (i mod 23) 'x' ^ "\"\\")
        | 3 -> J.Obj [ ("k" ^ string_of_int i, J.Bool (i mod 2 = 0)) ]
        | _ -> J.Null)
  in
  let doc = J.Arr items in
  let expect = Ref.to_string doc in
  Alcotest.(check bool) "spans several chunks" true
    (String.length expect > 200_000);
  Alcotest.(check string) "to_string" expect (J.to_string doc);
  let path = Filename.temp_file "json" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      J.to_file path doc;
      let got = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string) "to_file streams the same bytes"
        (expect ^ "\n") got)

(* ---------- parser ---------- *)

let parse_mismatch s =
  let got = J.of_string s and want = Ref.of_string s in
  if equal_result got want then None
  else
    Some
      (Printf.sprintf "input %S\n  got  %s\n  want %s" s (show_result got)
         (show_result want))

let check_parse s =
  match parse_mismatch s with
  | None -> true
  | Some report -> QCheck.Test.fail_report report

let prop_parse_documents =
  QCheck.Test.make ~name:"of_string == reference (documents)" ~count:500
    arb_json (fun j -> check_parse (Ref.to_string j))

(* Edit a written document: delete, insert or replace a byte, or cut it
   short, a few times. Inserted bytes favour JSON structure. *)
let gen_mutated =
  QCheck.Gen.(
    let structural = "{}[],:\"\\-+.eE0123456789 \n\ttfnu/x" in
    let mutate s =
      if s = "" then return s
      else
        int_bound (String.length s - 1) >>= fun p ->
        let before = String.sub s 0 p
        and after = String.sub s (p + 1) (String.length s - p - 1) in
        oneofl (List.of_seq (String.to_seq structural)) >>= fun c ->
        frequency
          [
            (2, return (before ^ after));
            ( 2,
              return
                (before ^ String.make 1 c
                ^ String.sub s p (String.length s - p)) );
            (2, return (before ^ String.make 1 c ^ after));
            (1, return before);
          ]
    in
    gen_json ~long:false >>= fun j ->
    let s = Ref.to_string j in
    int_range 1 3 >>= fun k ->
    let rec go s k =
      if k = 0 then return s else mutate s >>= fun s -> go s (k - 1)
    in
    go s k)

let prop_parse_mutated =
  QCheck.Test.make ~name:"of_string == reference (mutated, truncated)"
    ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_mutated)
    check_parse

(* Integer literals either side of the fast path's 18-digit limit, with and
   without sign, leading zeros, fractions and exponents, and every kind of
   byte that can end them. *)
let gen_number_doc =
  QCheck.Gen.(
    let digits n = string_size ~gen:(char_range '0' '9') (return n) in
    let lit =
      map3
        (fun sign ds tail -> sign ^ ds ^ tail)
        (oneofl [ ""; "-"; "--"; "+" ])
        (int_range 0 25 >>= digits)
        (oneofl [ ""; ""; ""; ".5"; "e3"; "E-2"; "."; "e"; "-1"; "+"; "0" ])
    in
    map3
      (fun pre l post -> pre ^ l ^ post)
      (oneofl [ ""; "["; "{\"k\":"; " " ])
      lit
      (oneofl [ ""; "]"; ","; "}"; " "; "x"; "\"" ]))

let prop_parse_numbers =
  QCheck.Test.make ~name:"of_string == reference (number literals)"
    ~count:3000 (QCheck.make ~print:(Printf.sprintf "%S") gen_number_doc)
    check_parse

let test_parse_edges () =
  List.iter
    (fun s -> Option.iter Alcotest.fail (parse_mismatch s))
    [
      "123456789012345678"; "-123456789012345678"; "1234567890123456789";
      "-1234567890123456789"; "4611686018427387903"; "4611686018427387904";
      "-4611686018427387904"; "-4611686018427387905"; "123456789012345678901";
      "-0"; "007"; "-"; "0x10"; "1_000"; "[1,2"; "{\"a\":1,\"a\":2}";
      "\"abc"; "\"a\\"; "\"\\u12\""; "\"\\uzzzz\""; "\"\\ud83d\\ude00\"";
      "\"\\ud83d\""; "\"a\\qb\""; "tru"; "nul"; "falsey"; ""; "   "; "[ ]";
      "{ }"; "{\"a\" 1}"; "{1:2}"; "[1 2]"; "\"\\u00e9\\n\" x";
    ]

(* Repeated keys share one string (less memory for big documents) without
   changing what the document reads as. *)
let test_parse_shares_keys () =
  match J.of_string {|[{"name":1},{"name":2}]|} with
  | Ok (J.Arr [ J.Obj [ (k1, _) ]; J.Obj [ (k2, _) ] ]) ->
      Alcotest.(check bool) "one string per key" true (k1 == k2)
  | Ok _ | Error _ -> Alcotest.fail "unexpected parse"

(* ---------- real exports ---------- *)

let test_real_exports () =
  List.iter
    (fun id ->
      let e =
        match Experiments.Registry.find id with
        | Some e -> e
        | None -> Alcotest.failf "%s not registered" id
      in
      let o = Experiments.Registry.run_one ~quick:true ~observe:true e in
      let sink = Option.get o.Experiments.Registry.sink in
      let results = Experiments.Registry.report_json ~quick:true [ o ] in
      let trace =
        Obs.Export.chrome_trace ~spans:[ sink.Obs.Sink.spans ]
          ~causal:[ sink.Obs.Sink.causal ] ~traces:[ sink.Obs.Sink.trace ] ()
      in
      List.iter
        (fun (what, doc) ->
          let want = Ref.to_string doc in
          let got = J.to_string doc in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: byte-identical (%d bytes)" id what
               (String.length want))
            true (String.equal want got);
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: parses identically" id what)
            true
            (equal_result (J.of_string got) (Ref.of_string want)))
        [ ("results", results); ("chrome trace", trace) ])
    [ "F6"; "R4" ]

let () =
  Alcotest.run "json"
    [
      ( "writer",
        [
          Alcotest.test_case "edge values" `Quick test_writer_edges;
          Alcotest.test_case "chunk boundaries + to_file" `Quick
            test_writer_chunk_boundaries;
          QCheck_alcotest.to_alcotest prop_to_string;
          QCheck_alcotest.to_alcotest prop_floats;
        ] );
      ( "parser",
        [
          Alcotest.test_case "edge inputs" `Quick test_parse_edges;
          Alcotest.test_case "shared keys" `Quick test_parse_shares_keys;
          QCheck_alcotest.to_alcotest prop_parse_documents;
          QCheck_alcotest.to_alcotest prop_parse_mutated;
          QCheck_alcotest.to_alcotest prop_parse_numbers;
        ] );
      ( "real export",
        [
          Alcotest.test_case "F6 + R4 results and trace" `Quick
            test_real_exports;
        ] );
    ]
