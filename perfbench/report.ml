(* The metric catalogue and the result line.

   [end_to_end] and [per_layer] are the names BENCHMARK.json declares, in
   the same order; every workload prints all of one list, so a run's
   metric set never depends on the workload. A per-layer metric of a
   layer the workload does not run reads 0 with 0 samples. *)

let end_to_end =
  [
    ("synth_s", "s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("throughput_rps", "1/s");
    ("p50_ms", "ms");
    ("p99_ms", "ms");
  ]

let per_layer =
  [
    ("distance.build_s", "s");
    ("search.expanded", "count");
    ("search.generated", "count");
    ("search.deduped", "count");
    ("search.pruned_cut", "count");
    ("search.pruned_viability", "count");
    ("search.max_open", "count");
    ("search.kept_ratio", "ratio");
    ("search.dedup_ratio", "ratio");
    ("search.states_per_s", "1/s");
    ("search.seq_s", "s");
    ("search.par_speedup", "ratio");
    ("gc.minor_mwords", "Mwords");
    ("gc.promoted_mwords", "Mwords");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
    ("certify.symbolic_us", "us");
    ("certify.exact_us", "us");
    ("store.lookup_ms", "ms");
    ("store.insert_ms", "ms");
    ("store.recover_s", "s");
    ("scheduler.run_one_ms", "ms");
    ("protocol.codec_us", "us");
    ("server.handle_us", "us");
    ("serve.memory_p50_ms", "ms");
    ("serve.memory_p99_ms", "ms");
    ("serve.disk_p50_ms", "ms");
    ("serve.disk_p99_ms", "ms");
    ("serve.search_p50_ms", "ms");
    ("serve.search_p99_ms", "ms");
    ("serve.wire_p50_ms", "ms");
    ("serve.memory_ratio", "ratio");
    ("serve.disk_ratio", "ratio");
    ("serve.miss_ratio", "ratio");
    ("serve.evictions", "count");
    ("serve.queue_hwm", "count");
    ("serve.coalesced", "count");
    ("serve.shed", "count");
    ("registry.readdir_calls", "count");
    ("registry.certifications", "count");
    ("registry.symbolic_proofs", "count");
    ("self.distance_s", "s");
    ("self.search_s", "s");
    ("self.certify_s", "s");
    ("self.store_s", "s");
    ("self.scheduler_s", "s");
    ("self.protocol_s", "s");
    ("self.server_s", "s");
    ("self.client_s", "s");
    ("trace.overhead_ms", "ms");
    ("trace.span_us", "us");
    ("trace.spans", "count");
  ]

(* Span layers whose self time is reported as [self.<layer>_s]. *)
let self_layers =
  [ "distance"; "search"; "certify"; "store"; "scheduler"; "protocol"; "server"; "client" ]

type metric = { name : string; value : float; samples : int }

(* What one run of a workload hands to [emit]. *)
type outcome = {
  attempted : int;
  failed : int;
  errors : string list;  (** Failed checks; any one makes the run fail. *)
  notes : string list;  (** Context for the human table. *)
  metrics : metric list;
}

let m ?(samples = 1) name value = { name; value; samples }

(* Zero-sample zeros for the per-layer metrics a workload does not run:
   every name that is, or whose layer is, in [names]. *)
let absent names =
  List.filter_map
    (fun (n, _) ->
      let layer = match String.index_opt n '.' with Some i -> String.sub n 0 i | None -> n in
      if List.mem n names || List.mem layer names then Some (m ~samples:0 n 0.) else None)
    per_layer

(* The declared names missing from [metrics], then the undeclared or
   repeated ones. *)
let mismatch ~trace metrics =
  let decl = List.map fst (if trace then per_layer else end_to_end) in
  let got = List.map (fun x -> x.name) metrics in
  List.filter (fun n -> not (List.mem n got)) decl
  @ List.filteri
      (fun i n -> (not (List.mem n decl)) || List.mem n (List.filteri (fun j _ -> j < i) got))
      got

(* Print the human table, then the one-line JSON result as the last line
   of stdout. The metric set must be exactly the declared one. *)
let emit ~trace ~correct ~attempted ~failed metrics =
  (match mismatch ~trace metrics with
  | [] -> ()
  | bad -> failwith ("metric set differs from the catalogue: " ^ String.concat ", " bad));
  let decl = if trace then per_layer else end_to_end in
  Printf.printf "# failed_frac %.6f ratio (%d of %d attempted)\n"
    (float failed /. float (max 1 attempted)) failed attempted;
  let body =
    List.map
      (fun (name, unit_) ->
        let x = List.find (fun x -> x.name = name) metrics in
        if not (Float.is_finite x.value) then failwith (name ^ " is not finite");
        Printf.printf "# %-26s %16.6f %-6s n=%d\n" name x.value unit_ x.samples;
        Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" name x.value unit_)
      decl
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed (String.concat "," body)
