(* The one JSON module: float round-trips, non-finite clamps, string
   escapes, and the parser's refusal of malformed input. *)

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 12 |]) t

let parse_exn s =
  match Jsonv.parse s with Ok v -> v | Error e -> Alcotest.failf "parse %S: %s" s e

(* Floats from the ranges where a fixed-precision printer loses bits:
   epoch-second timestamps with a fractional part (10 integer digits
   leave %.9g with no room for the fraction), subnormals, values around
   the 1e15 boundary where the renderer stops printing integral floats
   with %.1f, and arbitrary bit patterns — each of them also negated. *)
let float_gen =
  let open QCheck.Gen in
  let epoch =
    map2 (fun s f -> float_of_int s +. f) (int_range 1_600_000_000 1_800_000_000)
      (float_bound_exclusive 1.)
  in
  let subnormal =
    map (fun m -> Int64.float_of_bits (Int64.of_int m)) (int_range 1 ((1 lsl 52) - 1))
  in
  let near_1e15 =
    oneof
      [
        map (fun d -> 1e15 +. d) (float_range (-2.) 2.);
        map (fun k -> float_of_int (1_000_000_000_000_000 + k)) (int_range (-3) 3);
      ]
  in
  let any_bits =
    map Int64.float_of_bits ui64 |> map (fun x -> if Float.is_finite x then x else 0.5)
  in
  let magnitude = oneof [ epoch; subnormal; near_1e15; any_bits ] in
  map2 (fun neg x -> if neg then -.x else x) bool magnitude

let prop_float_roundtrip =
  QCheck.Test.make ~name:"finite floats round-trip bit for bit" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%h") float_gen)
    (fun x ->
      let s = Jsonv.to_string (Jsonv.Float x) in
      match Result.bind (Jsonv.parse s) Jsonv.to_float with
      | Ok y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
      | Error e -> QCheck.Test.fail_reportf "%s does not parse back: %s" s e)

let test_float_edges () =
  let bits_back x =
    match Jsonv.to_float (parse_exn (Jsonv.to_string (Jsonv.Float x))) with
    | Ok y -> Int64.bits_of_float y
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun x ->
      check Alcotest.int64 (Printf.sprintf "%h" x) (Int64.bits_of_float x) (bits_back x))
    [ 0.; -0.; 5e-324; -5e-324; 2.2250738585072014e-308; Float.max_float;
      1.7e9 +. 0.1; 6.737775762875875; 1e15; 1e15 +. 1.; 0.1 ];
  (* The two rendering regimes: integral floats below 1e15 keep a ".0",
     anything else prints at %.9g when that round-trips and at %.17g
     otherwise. *)
  check Alcotest.string "integral" "3.0" (Jsonv.to_string (Jsonv.Float 3.));
  check Alcotest.string "short" "0.25" (Jsonv.to_string (Jsonv.Float 0.25));
  check Alcotest.string "long" "6.7377757628758754"
    (Jsonv.to_string (Jsonv.Float 6.737775762875875))

(* JSON has no inf/nan: the documented clamps, each still valid JSON. *)
let test_non_finite_clamps () =
  List.iter
    (fun (x, want) ->
      let s = Jsonv.to_string (Jsonv.Float x) in
      check Alcotest.string (Printf.sprintf "%h" x) want s;
      ignore (parse_exn s))
    [ (Float.infinity, "1e308"); (Float.neg_infinity, "-1e308"); (Float.nan, "0.0") ]

let prop_string_roundtrip =
  QCheck.Test.make ~name:"any byte string round-trips" ~count:500 QCheck.string
    (fun s ->
      match Jsonv.parse (Jsonv.to_string (Jsonv.Str s)) with
      | Ok (Jsonv.Str s') -> String.equal s s'
      | _ -> false)

let test_rejects_garbage () =
  let bad s =
    match Jsonv.parse s with
    | Ok _ -> Alcotest.failf "accepted invalid JSON: %s" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad {|{"a":1,}|};
  bad {|[1, 2,]|};
  bad {|{"a" 1}|};
  bad {|"unterminated|};
  bad "nul";
  bad "1.2.3";
  bad {|{"a":1} trailing|};
  let good s =
    match Jsonv.parse s with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "rejected valid JSON %s: %s" s e
  in
  good "{}";
  good "[]";
  good {|{"a":[1,-2.5e3,true,false,null,"x\nA"]}|}

let () =
  Alcotest.run "jsonv"
    [
      ( "floats",
        [
          qtest prop_float_roundtrip;
          Alcotest.test_case "edge values" `Quick test_float_edges;
          Alcotest.test_case "non-finite clamps" `Quick test_non_finite_clamps;
        ] );
      ( "parse",
        [
          qtest prop_string_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_rejects_garbage;
        ] );
    ]
