let check = Alcotest.check

let test_duplicate_raises () =
  let g = Obs.create () in
  ignore (Obs.counter g "hits");
  let refused what register =
    match register () with
    | () -> Alcotest.failf "a %s re-registered \"hits\"" what
    | exception Invalid_argument _ -> ()
  in
  refused "counter" (fun () -> ignore (Obs.counter g "hits"));
  refused "gauge" (fun () -> Obs.gauge g "hits" (fun () -> Jsonv.Null));
  refused "group" (fun () -> ignore (Obs.group g "hits"));
  (* Names are per group: a nested group may reuse its parent's. *)
  ignore (Obs.counter (Obs.group g "inner") "hits");
  check Alcotest.string "the first registration stands"
    {|{"hits":0,"inner":{"hits":0}}|}
    (Jsonv.to_string (Obs.to_json g))

let test_registration_order () =
  let g = Obs.create () in
  let z = Obs.counter g "z" in
  let mode = ref "cold" in
  Obs.gauge g "mode" (fun () -> Jsonv.Str !mode);
  let inner = Obs.group g "inner" in
  let a = Obs.counter g "a" in
  (* Registered after "a" in the parent, still rendered inside "inner". *)
  let y = Obs.counter inner "y" in
  let b = Obs.counter inner "b" in
  Obs.incr z;
  Obs.add a 5;
  Obs.incr y;
  Obs.decr y;
  Obs.set b 7;
  mode := "warm";
  check Alcotest.string "registration order, nested, gauges read late"
    {|{"z":1,"mode":"warm","inner":{"y":0,"b":7},"a":5}|}
    (Jsonv.to_string (Obs.to_json g));
  check Alcotest.string "select renders the names in the order given"
    {|{"a":5,"z":1}|}
    (Jsonv.to_string (Obs.select g [ "a"; "z" ]));
  check Alcotest.(list string) "process block order"
    [ "readdir_calls"; "certifications"; "symbolic_proofs"; "exact_fallbacks" ]
    (match Obs.to_json Obs.Process.group with
    | Jsonv.Obj fields -> List.map fst fields
    | _ -> Alcotest.fail "process group is not an object")

(* No update is lost when two domains hammer one cell. *)
let test_concurrent_increments () =
  let g = Obs.create () in
  let c = Obs.counter g "n" in
  let per_domain = 100_000 in
  let work () =
    for _ = 1 to per_domain do
      Obs.incr c
    done
  in
  let d = Domain.spawn work in
  work ();
  Domain.join d;
  check Alcotest.int "2 x 100k increments" (2 * per_domain) (Obs.get c)

let () =
  Alcotest.run "obs"
    [
      ( "obs",
        [
          Alcotest.test_case "duplicate name raises" `Quick test_duplicate_raises;
          Alcotest.test_case "renders in registration order" `Quick
            test_registration_order;
          Alcotest.test_case "concurrent increments sum exactly" `Quick
            test_concurrent_increments;
        ] );
    ]
