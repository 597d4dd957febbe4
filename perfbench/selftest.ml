(* The benchmark's self-test: every output check and path assertion must
   fire on a deliberately wrong input, the metric catalogue must match
   BENCHMARK.json, and every workload must print exactly the catalogue's
   names in both modes. Run from the checkout root; takes about two
   minutes (it runs each workload briefly). *)

module Json = Registry.Json

let failures = ref 0

let expect what ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
  if not ok then incr failures

let fires what errors = expect (what ^ " -> fires") (errors <> [])
let passes what errors =
  expect (what ^ " -> passes") (errors = []);
  List.iter (fun e -> Printf.printf "       %s\n" e) errors

let drop_nth p i =
  Array.of_list (List.filteri (fun j _ -> j <> i) (Array.to_list p))

let names_of json key =
  match Json.member key json with
  | Some (Json.Arr l) ->
      List.map
        (fun o ->
          match (Json.member "name" o, Json.member "unit" o) with
          | Some (Json.Str n), Some (Json.Str u) -> (n, u)
          | Some (Json.Str n), None -> (n, "")
          | _ -> ("?", "?"))
        l
    | _ -> []

let catalogue () =
  match Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
  | Error e -> expect ("BENCHMARK.json parses: " ^ e) false
  | Ok j ->
      expect "BENCHMARK.json end_to_end = Report.end_to_end" (names_of j "end_to_end" = Report.end_to_end);
      expect "BENCHMARK.json per_layer = Report.per_layer" (names_of j "per_layer" = Report.per_layer);
      expect "BENCHMARK.json workloads = Main.workloads"
        (List.map fst (names_of j "workloads") = [ "n4-level-iii"; "serve-hot"; "serve-churn" ])

let kernels () =
  let cfg = Fixture.cfg in
  let r = Search.run ~opts:Search.best cfg in
  let p = List.hd r.Search.programs in
  let len = Isa.Program.length p in
  let text q = Isa.Program.to_string cfg q in
  passes "n=3 kernel at its recorded length" (Checks.kernel cfg ~expected_len:len (text p));
  fires "n=3 kernel against a wrong recorded length" (Checks.kernel cfg ~expected_len:(len + 1) (text p));
  fires "unparsable kernel text" (Checks.kernel cfg ~expected_len:len "cmp r1 frobnicate");
  for i = 0 to len - 1 do
    let q = drop_nth p i in
    (* No shorter n=3 kernel sorts, so the exact check itself must fire,
       not just the length comparison. *)
    fires
      (Printf.sprintf "kernel with instruction %d dropped (exact n! check)" (i + 1))
      (List.filter
         (fun e -> e = "kernel fails the exact n! sorting check")
         (Checks.kernel cfg ~expected_len:(len - 1) (text q)))
  done;
  let opts = { Search.best with engine = Search.Level_sync } in
  let r = Search.run ~opts cfg in
  let s = r.Search.stats in
  let pins =
    {
      Checks.length = Option.get r.Search.optimal_length;
      expanded = s.Search.expanded;
      generated = s.Search.generated;
    }
  in
  passes "level search at its pinned counts" (Checks.search cfg pins r);
  fires "wrong pinned expanded" (Checks.search cfg { pins with expanded = pins.expanded + 1 } r);
  fires "wrong pinned generated" (Checks.search cfg { pins with generated = pins.generated - 1 } r);
  fires "wrong pinned length" (Checks.search cfg { pins with length = pins.length + 1 } r);
  fires "search result with a truncated kernel"
    (Checks.search cfg pins { r with Search.programs = [ drop_nth (List.hd r.Search.programs) 0 ] });
  fires "search result with no kernel" (Checks.search cfg pins { r with Search.programs = [] })

let paths () =
  let hot =
    {
      Checks.requests = 1000;
      memory = 1000;
      disk = 0;
      search = 0;
      inserted = 0;
      evictions = 0;
      searches = 0;
      shed = 0;
      readdir_calls = 0;
      certifications = 0;
      symbolic_proofs = 0;
    }
  in
  passes "serve-hot deltas all zero" (Checks.hot_path hot);
  fires "serve-hot with a disk hit" (Checks.hot_path { hot with memory = 999; disk = 1 });
  fires "serve-hot with a readdir" (Checks.hot_path { hot with readdir_calls = 1 });
  fires "serve-hot with an exact certification" (Checks.hot_path { hot with certifications = 1 });
  fires "serve-hot with a symbolic proof" (Checks.hot_path { hot with symbolic_proofs = 2 });
  fires "serve-hot with a search" (Checks.hot_path { hot with searches = 1 });
  let churn =
    { hot with memory = 100; disk = 800; search = 100; inserted = 100; evictions = 880 }
  in
  passes "serve-churn on its 9:1 path" (Checks.churn_path churn);
  fires "serve-churn with a 3:7 miss mix"
    (Checks.churn_path { churn with disk = 600; search = 300; memory = 100; inserted = 300 });
  fires "serve-churn without evictions" (Checks.churn_path { churn with evictions = 0 });
  fires "serve-churn with a shed" (Checks.churn_path { churn with shed = 1 });
  fires "serve-churn with a lost insert" (Checks.churn_path { churn with inserted = 99 });
  fires "serve-churn without memory hits"
    (Checks.churn_path { churn with memory = 0; disk = 900 })

let catalogue_checks () =
  let all trace = List.map (fun (n, _) -> Report.m n 1.) (if trace then Report.per_layer else Report.end_to_end) in
  passes "complete end-to-end set" (Report.mismatch ~trace:false (all false));
  passes "complete per-layer set" (Report.mismatch ~trace:true (all true));
  fires "end-to-end set with p99_ms missing"
    (Report.mismatch ~trace:false (List.filter (fun x -> x.Report.name <> "p99_ms") (all false)));
  fires "end-to-end set with an undeclared metric"
    (Report.mismatch ~trace:false (Report.m "p999_ms" 1. :: all false));
  fires "per-layer set with a repeated metric"
    (Report.mismatch ~trace:true (Report.m "serve.shed" 0. :: all true));
  (* A parent [0,10] with children [1,4] and [3,6] has 5 s of self time. *)
  let s id parent start stop = { Spans.id; name = "store.x"; parent; rid = -1; start; stop } in
  let self = Spans.self_time (s 1 0 0. 10.) [ s 2 1 1. 4.; s 3 1 3. 6. ] in
  expect (Printf.sprintf "self time with overlapping children = 5 (got %g)" self) (Float.abs (self -. 5.) < 1e-9);
  (* One-second measurements, the host stealing [pct]% of each. *)
  let quiet pcts =
    let jps = Lazy.force Stat.jiffies_per_s in
    Array.to_list
      (Stat.quiet (Array.of_list (List.map (fun p -> (1., int_of_float (jps *. p /. 100.))) pcts)))
  in
  expect "quiet keeps every measurement of an undisturbed run"
    (quiet [ 0.; 0.; 1.; 0. ] = [ true; true; true; true ]);
  expect "quiet keeps only the measurements with at most 2% steal"
    (quiet [ 10.; 0.; 30.; 10.; 0.; 20.; 10.; 40. ]
    = [ false; true; false; false; true; false; false; false ]);
  expect "quiet falls back to the quarter with the least steal"
    (quiet [ 10.; 0.; 30.; 10.; 50.; 20.; 15.; 40. ]
    = [ true; true; false; false; false; false; false; false ])

(* Run the benchmark itself and read the names of its result line. *)
let result_names args =
  let ic = Unix.open_process_args_in Sys.executable_name (Array.append [| Sys.executable_name |] args) in
  let rec last prev = match input_line ic with l -> last (Some l) | exception End_of_file -> prev in
  let line = last None in
  let status = Unix.close_process_in ic in
  match (status, Option.map Json.parse line) with
  | Unix.WEXITED 0, Some (Ok j) -> (
      match Json.member "metrics" j with
      | Some (Json.Obj l) -> Some (List.map fst l)
      | _ -> None)
  | _ -> None

let runs () =
  List.iter
    (fun trace ->
      let want = List.map fst (if trace then Report.per_layer else Report.end_to_end) in
      List.iter
        (fun w ->
          let names =
            result_names
              [| "--workload"; w; "--seed"; "7"; "--seconds"; "6"; "--trace"; (if trace then "1" else "0") |]
          in
          expect
            (Printf.sprintf "%s --trace %d prints exactly the catalogue's names" w (Bool.to_int trace))
            (names = Some want))
        [ "n4-level-iii"; "serve-hot"; "serve-churn" ])
    [ false; true ]

let run () =
  catalogue ();
  kernels ();
  paths ();
  catalogue_checks ();
  runs ();
  Printf.printf "%s: %d failure(s)\n" (if !failures = 0 then "self-test passed" else "self-test FAILED") !failures;
  if !failures = 0 then 0 else 1
