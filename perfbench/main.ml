(* perfbench: the repository's benchmark. See README.md.

   perfbench --workload NAME --seed N --seconds S --trace 0|1
   perfbench --self-test

   Prints a human-readable table, then one JSON result object as the last
   line of stdout. Exits 1 when an output check or path assertion fails
   (after printing the result with "correct": false), 2 on bad usage. *)

let workloads = [ "n4-level-iii"; "serve-hot"; "serve-churn" ]

let run_workload ~workload ~seed ~seconds ~trace =
  match (workload, trace) with
  | "n4-level-iii", false -> Wl_n4.measure ~seconds
  | "n4-level-iii", true -> Wl_n4.measure_traced ()
  | "serve-hot", false -> Wl_serve.(measure Hot ~seed ~seconds)
  | "serve-hot", true -> Wl_serve.(measure_traced Hot ~seed ~seconds)
  | "serve-churn", false -> Wl_serve.(measure Churn ~seed ~seconds)
  | "serve-churn", true -> Wl_serve.(measure_traced Churn ~seed ~seconds)
  | w, _ -> invalid_arg ("unknown workload " ^ w)

(* Self time per layer, the cost of one span, and the span count. *)
let trace_metrics () =
  let spans = Spans.all () in
  let self = Spans.self_by_layer spans in
  let count l = List.length (List.filter (fun s -> Spans.layer s.Spans.name = l) spans) in
  List.map (fun l -> Report.m ~samples:(count l) ("self." ^ l ^ "_s") (self l)) Report.self_layers
  @ Report.
      [
        m ~samples:20_000 "trace.span_us" (Spans.cost_us ());
        m "trace.spans" (float (List.length spans));
      ]

let bench ~workload ~seed ~seconds ~trace =
  let o = run_workload ~workload ~seed ~seconds ~trace in
  let metrics = if trace then o.Report.metrics @ trace_metrics () else o.Report.metrics in
  if trace then begin
    let dir = Filename.concat Fixture.work_dir "traces" in
    Fixture.mkdir_p dir;
    let path = Printf.sprintf "%s/%s-seed%d.jsonl" dir workload seed in
    Spans.write path (Spans.all ());
    Printf.printf "# spans written to %s\n" path
  end;
  List.iter (fun n -> Printf.printf "# %s\n" n) o.Report.notes;
  List.iteri
    (fun i e -> if i < 20 then Printf.eprintf "perfbench: CHECK FAILED: %s\n" e)
    o.Report.errors;
  if List.length o.Report.errors > 20 then
    Printf.eprintf "perfbench: ... %d failed checks in all\n" (List.length o.Report.errors);
  let correct = o.Report.errors = [] && o.Report.failed = 0 in
  Report.emit ~trace ~correct ~attempted:o.Report.attempted ~failed:o.Report.failed metrics;
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15 and trace = ref 0 in
  let self_test = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S seconds of measurement");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--self-test", Arg.Set self_test, " show that every check fires on bad input");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage
   with Arg.Bad msg | Arg.Help msg ->
     prerr_string msg;
     exit 2);
  if !self_test then exit (Selftest.run ())
  else if not (List.mem !workload workloads) || (!trace <> 0 && !trace <> 1) || !seconds < 1
  then begin
    prerr_endline (Arg.usage_string spec usage);
    exit 2
  end
  else
    try
      bench ~workload:!workload ~seed:!seed ~seconds:(float !seconds) ~trace:(!trace = 1)
    with e ->
      Printf.eprintf "perfbench: %s failed: %s\n" !workload (Printexc.to_string e);
      exit 1
