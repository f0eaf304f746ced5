type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- writing. The serialiser fills fixed-size chunks and hands each full
   one to [spill], which returns the chunk to continue in: [to_string]
   keeps every chunk and joins them once at the end, [to_channel] writes
   each out and reuses it. Nothing is ever copied into a bigger buffer, and
   a streamed document is never held whole. All state lives in the writer,
   so concurrent serialisations on several domains share nothing. --- *)

let chunk_size = 65536

type writer = {
  mutable buf : Bytes.t;
  mutable pos : int;
  spill : Bytes.t -> int -> Bytes.t;
}

let spill w =
  w.buf <- w.spill w.buf w.pos;
  w.pos <- 0

(* Make room for [n] <= [chunk_size] contiguous bytes. *)
let reserve w n = if w.pos + n > Bytes.length w.buf then spill w

let add_char w c =
  reserve w 1;
  Bytes.unsafe_set w.buf w.pos c;
  w.pos <- w.pos + 1

(* [s.[off .. off + len - 1]], split across chunks when it does not fit.
   Short runs (most keys and values) are copied by a byte loop, which is
   cheaper than a call to [blit]. *)
let rec add_sub w s off len =
  let room = Bytes.length w.buf - w.pos in
  if len <= room then begin
    if len <= 16 then
      for i = 0 to len - 1 do
        Bytes.unsafe_set w.buf (w.pos + i) (String.unsafe_get s (off + i))
      done
    else Bytes.blit_string s off w.buf w.pos len;
    w.pos <- w.pos + len
  end
  else begin
    Bytes.blit_string s off w.buf w.pos room;
    w.pos <- w.pos + room;
    spill w;
    add_sub w s (off + room) (len - room)
  end

let add_string w s = add_sub w s 0 (String.length s)

(* [neg_digits n 1 (-10)] is the number of digits of [n] <= 0. Integers are
   written from their negative side, which also covers [min_int]. *)
let rec neg_digits n d p =
  if d = 19 || n > p then d else neg_digits n (d + 1) (p * 10)

(* "00" .. "99": two digits per division. *)
let digit_pairs =
  "000102030405060708091011121314151617181920212223242526272829\
   303132333435363738394041424344454647484950515253545556575859\
   606162636465666768697071727374757677787980818283848586878889\
   90919293949596979899"

(* Same text as [string_of_int]. *)
let add_int w i =
  reserve w 20;
  let n = if i < 0 then begin
      Bytes.unsafe_set w.buf w.pos '-';
      w.pos <- w.pos + 1;
      i
    end
    else -i
  in
  let buf = w.buf in
  let last = w.pos + neg_digits n 1 (-10) - 1 in
  let n = ref n and p = ref last in
  while !n <= -10 do
    let r = -(!n mod 100) in
    Bytes.unsafe_set buf !p (String.unsafe_get digit_pairs ((2 * r) + 1));
    Bytes.unsafe_set buf (!p - 1) (String.unsafe_get digit_pairs (2 * r));
    n := !n / 100;
    p := !p - 2
  done;
  if !p = w.pos then Bytes.unsafe_set buf !p (Char.unsafe_chr (48 - !n));
  w.pos <- last + 1

(* [k / 1000] for [0 < |k| < 10^12], [k] not a multiple of 1000: the
   integer part, a point and the fraction without trailing zeros, which is
   what [%.12g] prints for the double nearest that value. *)
let add_millis w k =
  if k < 0 then add_char w '-';
  let a = abs k in
  add_int w (a / 1000);
  let r = a mod 1000 in
  let digit d = Char.unsafe_chr (48 + d) in
  reserve w 4;
  Bytes.unsafe_set w.buf w.pos '.';
  Bytes.unsafe_set w.buf (w.pos + 1) (digit (r / 100));
  Bytes.unsafe_set w.buf (w.pos + 2) (digit (r / 10 mod 10));
  Bytes.unsafe_set w.buf (w.pos + 3) (digit (r mod 10));
  w.pos <- w.pos + if r mod 100 = 0 then 2 else if r mod 10 = 0 then 3 else 4

(* JSON has no NaN/Infinity; they render as null. Integral values below
   1e15 print without a fraction ([%.0f]); every other finite value prints
   as [%.12g]. Two fast paths produce that text without Printf: integral
   values go through [add_int], and values that are exactly the double
   nearest [k/1000] for [|k| < 10^12] (every simulated-ns -> us timestamp)
   through [add_millis]: such a value has at most 12 significant digits
   and lies within half an ulp of them, so [%.12g] rounds back to exactly
   [k/1000], in fixed notation since its exponent is between -3 and 8. *)
let add_float w f =
  if Float.is_nan f || Float.abs f = Float.infinity then add_string w "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0. && Float.sign_bit f then add_string w "-0"
    else add_int w (Float.to_int f)
  else
    let k = Float.round (f *. 1000.) in
    if Float.abs k < 1e12 && k /. 1000. = f then add_millis w (Float.to_int k)
    else add_string w (Printf.sprintf "%.12g" f)

let hex = "0123456789abcdef"

(* RFC 8259 escaping of [s] from byte [i] on, where the bytes from [start]
   to [i] need none; each such run is copied at once. *)
let rec add_escaped w s start i =
  if i = String.length s then add_sub w s start (i - start)
  else
    match String.unsafe_get s i with
    | ('"' | '\\' | '\000' .. '\031') as c ->
        add_sub w s start (i - start);
        (match c with
        | '"' -> add_string w "\\\""
        | '\\' -> add_string w "\\\\"
        | '\n' -> add_string w "\\n"
        | '\r' -> add_string w "\\r"
        | '\t' -> add_string w "\\t"
        | c ->
            add_string w "\\u00";
            add_char w hex.[Char.code c lsr 4];
            add_char w hex.[Char.code c land 15]);
        add_escaped w s (i + 1) (i + 1)
    | _ -> add_escaped w s start (i + 1)

let rec write w = function
  | Null -> add_string w "null"
  | Bool b -> add_string w (if b then "true" else "false")
  | Int i -> add_int w i
  | Float f -> add_float w f
  | Str s ->
      add_char w '"';
      add_escaped w s 0 0;
      add_char w '"'
  | Arr [] -> add_string w "[]"
  | Arr (x :: xs) ->
      add_char w '[';
      write w x;
      write_items w xs;
      add_char w ']'
  | Obj [] -> add_string w "{}"
  | Obj (f :: fs) ->
      add_char w '{';
      write_field w f;
      write_fields w fs;
      add_char w '}'

and write_items w = function
  | [] -> ()
  | x :: xs ->
      add_char w ',';
      write w x;
      write_items w xs

and write_field w (k, v) =
  add_char w '"';
  add_escaped w k 0 0;
  add_string w "\":";
  write w v

and write_fields w = function
  | [] -> ()
  | f :: fs ->
      add_char w ',';
      write_field w f;
      write_fields w fs

let to_string j =
  let full = ref [] in
  let spill b n =
    full := (b, n) :: !full;
    Bytes.create chunk_size
  in
  let w = { buf = Bytes.create chunk_size; pos = 0; spill } in
  write w j;
  let chunks = List.rev ((w.buf, w.pos) :: !full) in
  let out = Bytes.create (List.fold_left (fun a (_, n) -> a + n) 0 chunks) in
  ignore
    (List.fold_left
       (fun off (b, n) ->
         Bytes.blit b 0 out off n;
         off + n)
       0 chunks);
  Bytes.unsafe_to_string out

let to_channel oc j =
  let spill b n =
    output oc b 0 n;
    b
  in
  let w = { buf = Bytes.create chunk_size; pos = 0; spill } in
  write w j;
  output oc w.buf 0 w.pos

let to_file path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      to_channel oc j;
      output_char oc '\n')

(* --- parsing (for `popcornsim analyze` / `diff`, which read documents the
   serialiser above wrote). Recursive descent over the full RFC 8259
   grammar; numbers without '.', 'e' or overflow parse as Int so documents
   round-trip through the Int/Float split above. Fast paths cover what the
   serialiser writes most (strings without escapes, short integers); the
   rest keeps the general code, so results and error messages do not
   depend on which path a byte took. --- *)

exception Parse_error of string

type parser_state = {
  src : string;
  mutable pos : int;
  keys : (string, string) Hashtbl.t;
      (** object keys seen so far: repeated keys share one string *)
}

let parse_fail st msg =
  raise (Parse_error (Printf.sprintf "%s at byte %d" msg st.pos))

let skip_ws st =
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

(* [st.src.[st.pos] = c], false at end of input. *)
let looking_at st c = st.pos < String.length st.src && st.src.[st.pos] = c

let expect st c =
  if looking_at st c then st.pos <- st.pos + 1
  else parse_fail st (Printf.sprintf "expected '%c'" c)

let parse_literal st word value =
  let n = String.length word in
  let rec matches i =
    i = n || (st.src.[st.pos + i] = word.[i] && matches (i + 1))
  in
  if st.pos + n <= String.length st.src && matches 0 then begin
    st.pos <- st.pos + n;
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

(* First index at or after [i] holding '"' or '\\', or the length. *)
let rec string_run src i =
  if i < String.length src
     && match String.unsafe_get src i with '"' | '\\' -> false | _ -> true
  then string_run src (i + 1)
  else i

(* Decode the rest of a string that holds escapes into [buf], up to and
   past the closing quote. *)
let rec parse_escaped st buf =
  let src = st.src in
  let i = string_run src st.pos in
  Buffer.add_substring buf src st.pos (i - st.pos);
  st.pos <- i;
  if i >= String.length src then parse_fail st "unterminated string"
  else if src.[i] = '"' then st.pos <- i + 1
  else begin
    st.pos <- i + 1;
    let simple c =
      Buffer.add_char buf c;
      st.pos <- st.pos + 1
    in
    if st.pos >= String.length src then parse_fail st "bad escape";
    (match src.[st.pos] with
    | '"' -> simple '"'
    | '\\' -> simple '\\'
    | '/' -> simple '/'
    | 'b' -> simple '\b'
    | 'f' -> simple '\012'
    | 'n' -> simple '\n'
    | 'r' -> simple '\r'
    | 't' -> simple '\t'
    | 'u' ->
        st.pos <- st.pos + 1;
        let cp = parse_hex4 st in
        (* Surrogate pair: \uD800-\uDBFF must be followed by a low
           surrogate; combine them. *)
        let cp =
          if cp >= 0xD800 && cp <= 0xDBFF
             && st.pos + 6 <= String.length src
             && src.[st.pos] = '\\'
             && src.[st.pos + 1] = 'u'
          then begin
            st.pos <- st.pos + 2;
            let lo = parse_hex4 st in
            0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
          end
          else cp
        in
        add_utf8 buf cp
    | _ -> parse_fail st "bad escape");
    parse_escaped st buf
  end

let parse_string st =
  expect st '"';
  let src = st.src and start = st.pos in
  let i = string_run src start in
  if i < String.length src && src.[i] = '"' then begin
    st.pos <- i + 1;
    String.sub src start (i - start)
  end
  else begin
    let buf = Buffer.create (i - start + 16) in
    Buffer.add_substring buf src start (i - start);
    st.pos <- i;
    parse_escaped st buf;
    Buffer.contents buf
  end

let parse_key st =
  let k = parse_string st in
  match Hashtbl.find_opt st.keys k with
  | Some shared -> shared
  | None ->
      Hashtbl.add st.keys k k;
      k

let is_digit c = c >= '0' && c <= '9'

let is_num_char c =
  match c with
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

(* The general number path: the longest run of number characters, as an
   Int when it has no fraction or exponent and fits, else as a Float. *)
let parse_number_lit st start =
  st.pos <- start;
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

(* Fast path: an optional '-' and 1 to 18 digits (so no overflow) that no
   other number character follows is an Int, accumulated in place. *)
let parse_number st =
  let src = st.src and start = st.pos in
  let len = String.length src in
  let neg = src.[start] = '-' in
  let first = if neg then start + 1 else start in
  let i = ref first and acc = ref 0 in
  while !i < len && !i - first < 18 && is_digit (String.unsafe_get src !i) do
    acc := (!acc * 10) + Char.code (String.unsafe_get src !i) - 48;
    incr i
  done;
  if !i > first && (!i >= len || not (is_num_char src.[!i])) then begin
    st.pos <- !i;
    Int (if neg then - !acc else !acc)
  end
  else parse_number_lit st start

let rec parse_value st =
  skip_ws st;
  if st.pos >= String.length st.src then parse_fail st "unexpected end of input";
  match st.src.[st.pos] with
  | '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if looking_at st '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else Obj (parse_members st)
  | '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if looking_at st ']' then begin
        st.pos <- st.pos + 1;
        Arr []
      end
      else Arr (parse_elements st)
  | '"' -> Str (parse_string st)
  | 't' -> parse_literal st "true" (Bool true)
  | 'f' -> parse_literal st "false" (Bool false)
  | 'n' -> parse_literal st "null" Null
  | '-' | '0' .. '9' -> parse_number st
  | c -> parse_fail st (Printf.sprintf "unexpected '%c'" c)

(* Members and elements are built front to back (tail-mod-cons): in
   order, in constant stack, with no final [List.rev]. *)
and[@tail_mod_cons] parse_members st =
  skip_ws st;
  let k = parse_key st in
  skip_ws st;
  expect st ':';
  let v = parse_value st in
  skip_ws st;
  if looking_at st ',' then begin
    st.pos <- st.pos + 1;
    (k, v) :: parse_members st
  end
  else if looking_at st '}' then begin
    st.pos <- st.pos + 1;
    [ (k, v) ]
  end
  else (parse_fail [@tailcall false]) st "expected ',' or '}'"

and[@tail_mod_cons] parse_elements st =
  let v = parse_value st in
  skip_ws st;
  if looking_at st ',' then begin
    st.pos <- st.pos + 1;
    v :: parse_elements st
  end
  else if looking_at st ']' then begin
    st.pos <- st.pos + 1;
    [ v ]
  end
  else (parse_fail [@tailcall false]) st "expected ',' or ']'"

let of_string s =
  let st = { src = s; pos = 0; keys = Hashtbl.create 64 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at byte %d" st.pos)
      else Ok v
  | exception Parse_error msg -> Error msg
  | exception Failure msg -> Error msg (* e.g. malformed \u escape *)

let of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string s
  | exception Sys_error msg -> Error msg
