(* The benchmark's in-process half.

     probe oracle KB STATES KEYS   cache-free Kb.Store answers per state
     probe naive FILE stable|prefer  Stable.Naive / Prefer.Naive models
     probe datadir DIR             recover a data dir: seq + fingerprint
     probe trace WORKLOAD DIR      traced replay of DIR's generated inputs

   Answers are printed one JSON object per line.  The traced replay runs
   the workload's inputs three times in one process — a warm-up pass and
   an untraced one with spans off, then one with spans on — and prints
   the wall time and the deterministic counts of each pass; the spans of
   the last pass go to DIR/spans.tsv.  Spans are recorded here, around
   calls into each layer's public functions, never inside the
   libraries. *)

module J = Server.Wire
module B = Ordered.Budget

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let read_lines path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")

let parse_json line =
  match J.parse ~max_len:(String.length line + 1) line with
  | Ok j -> j
  | Error e -> failwith ("probe: bad JSON input: " ^ J.error_to_string e)

let decode line =
  match J.decode_request line with
  | Ok r -> r
  | Error e -> failwith ("probe: bad request: " ^ J.error_to_string e)

let emit j = print_endline (J.to_string j)

(* ------------------------------------------------------------------ *)
(* Spans and counts                                                    *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int;
  rid : int;
  name : string;
  t0 : int64;
  t1 : int64;
}

let tracing = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let rid = ref 0
let now () = Monotonic_clock.now ()

(* [span name f] runs [f] and, when tracing, records its interval with
   the enclosing span as parent.  [rename] lets a caller classify the
   span after the fact (a session lookup becomes a hit or a miss). *)
let span ?rename name f =
  if not !tracing then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let t0 = now () in
    let finish v =
      let t1 = now () in
      stack := List.tl !stack;
      let name = match (rename, v) with Some r, Some v -> r v | _ -> name in
      spans := { id; parent; rid = !rid; name; t0; t1 } :: !spans
    in
    match f () with
    | v ->
      finish (Some v);
      v
    | exception e ->
      finish None;
      raise e
  end

let counts : (string, int) Hashtbl.t = Hashtbl.create 32
let count name n =
  Hashtbl.replace counts name
    (n + Option.value ~default:0 (Hashtbl.find_opt counts name))

let request name f =
  incr rid;
  count "requests" 1;
  span name f

let write_spans path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%Ld\t%Ld\n" s.id s.parent s.rid
            s.name s.t0 s.t1)
        (List.rev !spans))

(* ------------------------------------------------------------------ *)
(* Answers                                                             *)
(* ------------------------------------------------------------------ *)

let value_json v =
  J.String
    (match v with
    | Logic.Interp.True -> "true"
    | Logic.Interp.False -> "false"
    | Logic.Interp.Undefined -> "undefined")

let models_json ms =
  J.List
    (List.map
       (fun m ->
         J.List
           (List.map
              (fun l -> J.String (Logic.Literal.to_string l))
              (Logic.Interp.to_literals m)))
       ms)

let complete what = function
  | B.Complete ms -> ms
  | B.Partial _ -> failwith ("probe: partial enumeration in " ^ what)

(* The cache-free answer to one read request. *)
let store_answer store (req : J.request) =
  match req.J.verb with
  | J.Query { obj; lit; prefer = None; _ } ->
    J.Obj
      [ ("value",
         value_json (Kb.Store.query store ~obj (Lang.Parser.parse_literal lit)))
      ]
  | J.Models { obj; kind = `Stable; limit; prefer = None; _ } ->
    J.Obj
      [ ("models",
         models_json
           (complete "oracle" (Kb.Store.stable_models ?limit store ~obj))) ]
  | J.Explain { obj; lit } ->
    J.Obj
      [ ("text",
         J.String
           (Ordered.Explain.to_string
              (Kb.Store.explain store ~obj (Lang.Parser.parse_literal lit))))
      ]
  | _ -> failwith "probe: unsupported read request"

let mutation_of (req : J.request) =
  match req.J.verb with
  | J.Load { src } -> Kb.Store.Load { src }
  | J.Add_rule { obj; rule } ->
    Kb.Store.Add_rule { obj; rule = Lang.Parser.parse_rule rule }
  | J.Remove_rule { obj; rule } ->
    Kb.Store.Remove_rule { obj; rule = Lang.Parser.parse_rule rule }
  | J.Set_preference { rule; over } -> Kb.Store.Set_preference { rule; over }
  | J.Clear_preference { rule; over } ->
    Kb.Store.Clear_preference { rule; over }
  | _ -> failwith "probe: unsupported mutation request"

let fingerprint_of store = Kb.Session.fingerprint (Kb.Session.of_store store)

(* oracle KB STATES KEYS: for each state (a JSON list of mutation
   requests applied to the loaded KB) print its fingerprint, then one
   answer per key. *)
let oracle kb_file states_file keys_file =
  let src = read_file kb_file in
  let keys = List.map decode (read_lines keys_file) in
  List.iteri
    (fun i line ->
      let store = Kb.Store.create () in
      Kb.Store.load store src;
      (match parse_json line with
      | J.List ms ->
        List.iter
          (fun m -> Kb.Store.apply store (mutation_of (decode (J.to_string m))))
          ms
      | _ -> failwith "probe: a state is a JSON list of requests");
      emit
        (J.Obj
           [ ("state", J.Int i);
             ("fingerprint", J.String (fingerprint_of store)) ]);
      List.iter (fun k -> emit (store_answer store k)) keys)
    (read_lines states_file)

(* ------------------------------------------------------------------ *)
(* One-shot instances, as olp runs them                                *)
(* ------------------------------------------------------------------ *)

let parse_instance src =
  let ast = Lang.Parser.parse_file src in
  match Ordered.Program.of_ast ast with
  | Ok prog -> (prog, Lang.Ast.prefer_pairs ast)
  | Error e -> failwith ("probe: " ^ e)

let viewpoint prog =
  match Ordered.Poset.minimal (Ordered.Program.poset prog) with
  | [ id ] -> id
  | _ -> failwith "probe: instance without a unique minimal component"

let naive file mode =
  let prog, prefs = parse_instance (read_file file) in
  let id = viewpoint prog in
  let ms =
    match mode with
    | "stable" ->
      Ordered.Stable.Naive.stable_models (Ordered.Gop.ground prog id)
    | "prefer" ->
      Prefer.Naive.preferred_models (Prefer.Spec.make prog id prefs)
    | m -> failwith ("probe: unknown naive mode " ^ m)
  in
  emit (J.Obj [ ("models", models_json (complete "naive" ms)) ])

let datadir dir =
  let p, store, r =
    Persist.open_dir
      { Persist.dir; fsync = false; snapshot_every = 0; group_commit_ms = 0 }
  in
  Persist.close p;
  emit
    (J.Obj
       [ ("seq", J.Int r.Persist.seq);
         ("fingerprint", J.String (fingerprint_of store)) ])

(* ------------------------------------------------------------------ *)
(* Layer calls shared by the replays                                   *)
(* ------------------------------------------------------------------ *)

let note_gop g =
  count "ground.rules" (Ordered.Gop.n_rules g);
  count "ground.atoms" (Ordered.Gop.n_atoms g);
  g

let ground prog id =
  note_gop (span "ground.gop_ground" (fun () -> Ordered.Gop.ground prog id))

let note_search (c : Ordered.Counters.t) =
  count "core.search_nodes" c.nodes;
  count "core.search_leaves" c.leaves;
  count "core.search_models" c.models

let note_kernel (c : Ordered.Counters.t) =
  count "solve.conflicts" c.conflicts;
  count "solve.learned" c.learned

let search ?limit g =
  let c = Ordered.Counters.create () in
  let r =
    span "core.search" (fun () -> Ordered.Stable.stable_models ?limit ~stats:c g)
  in
  note_search c;
  r

let kernel ?flat g =
  let flat =
    match flat with
    | Some f -> f
    | None -> span "solve.flat_compile" (fun () -> Solve.Flat.compile g)
  in
  let c = Ordered.Counters.create () in
  let r =
    span "solve.kernel" (fun () -> Solve.Kernel.stable_models ~flat ~stats:c g)
  in
  note_kernel c;
  (flat, r)

(* Wire path: decode, serve, encode — each its own span. *)
let serve engine line =
  let req = span "server.wire_decode" (fun () -> decode line) in
  let verb =
    match req.J.verb with
    | J.Query _ -> "query"
    | J.Models _ -> "models"
    | J.Explain _ -> "explain"
    | J.Add_rule _ -> "add_rule"
    | J.Remove_rule _ -> "remove_rule"
    | J.Set_preference _ -> "set_preference"
    | J.Clear_preference _ -> "clear_preference"
    | J.Load _ -> "load"
    | _ -> "other"
  in
  let resp =
    span ("server.engine_handle." ^ verb) (fun () -> Server.Engine.handle engine req)
  in
  let line = span "server.wire_encode" (fun () -> J.to_string resp) in
  if J.status_of_response resp <> `Ok then begin
    count "check.failed" 1;
    prerr_endline ("probe: request failed: " ^ line)
  end;
  (req, resp)

(* ------------------------------------------------------------------ *)
(* Decomposition of session work                                       *)
(* ------------------------------------------------------------------ *)

(* A session answers a miss by grounding the viewpoint, then running the
   fixpoint, a search or an explanation, and it repairs the groundings
   of touched viewpoints on a write; the libraries carry no spans.  So
   after each session miss or write the probe calls the same public
   functions again, on the same KB state, and times those calls.  These
   decomposition spans hang off the request, not off the session call:
   the kb, server and replica spans stay inclusive of the work done
   inside the library, and nothing is subtracted from them.  A miss is
   decomposed from scratch (ground, then solve); the session may have
   kept the viewpoint's grounding from an earlier read. *)
let decompose_read store (req : J.request) =
  let prog = Kb.Store.to_program store in
  let gop obj = ground prog (Ordered.Program.component_id_exn prog obj) in
  match req.J.verb with
  | J.Query { obj; _ } ->
    let g = gop obj in
    ignore (span "core.lfp" (fun () -> Ordered.Vfix.least_model g))
  | J.Models { obj; engine = `Compiled; _ } -> ignore (kernel (gop obj))
  | J.Models { obj; _ } -> ignore (search (gop obj))
  | J.Explain { obj; lit } ->
    let g = gop obj in
    let l = Lang.Parser.parse_literal lit in
    ignore (span "core.explain" (fun () -> Ordered.Explain.explain g l))
  | _ -> ()

(* Does [viewpoint] inherit from [obj] (its isa-cone contains it)? *)
let sees store ~viewpoint ~obj =
  let rec go seen = function
    | [] -> false
    | x :: rest when List.mem x seen -> go seen rest
    | x :: rest ->
      x = obj
      || go (x :: seen) (List.rev_append (Kb.Store.parents store x) rest)
  in
  go [] [ viewpoint ]

(* The delta path of a rule mutation on every reader viewpoint that sees
   the mutated object: re-ground from the pre-write grounding, then
   repair the pre-write least model (both prepared untimed). *)
let decompose_write ~before ~after ~readers m =
  match m with
  | Kb.Store.Add_rule { obj; _ } | Kb.Store.Remove_rule { obj; _ } ->
    let program = Kb.Store.to_program after in
    List.iter
      (fun w ->
        if sees after ~viewpoint:w ~obj then begin
          let st =
            Inc.Reground.ground before
              (Ordered.Program.component_id_exn before w)
          in
          let previous = Ordered.Vfix.least_model st.Inc.Reground.gop in
          match
            span "inc.reground" (fun () -> Inc.Reground.reground st ~program)
          with
          | Ok (st', d) when not (Inc.Delta.is_empty d) ->
            ignore
              (span "inc.repair" (fun () ->
                   Inc.Repair.least_model ~previous st'.Inc.Reground.gop d))
          | Ok _ | Error _ -> ()
        end)
      readers
  | _ -> ()

(* A direct session read, classified as a hit or a miss by the session's
   own counters; a miss is then decomposed. *)
let session_read session (req : J.request) =
  let before = Kb.Session.counters session in
  let missed () = (Kb.Session.counters session).misses > before.misses in
  let call () =
    match req.J.verb with
    | J.Query { obj; lit; _ } ->
      ignore (Kb.Session.query session ~obj (Lang.Parser.parse_literal lit))
    | J.Models { obj; engine; _ } ->
      ignore (Kb.Session.stable_models ~engine session ~obj)
    | J.Explain { obj; lit } ->
      ignore (Kb.Session.explain session ~obj (Lang.Parser.parse_literal lit))
    | _ -> ()
  in
  span "kb.session"
    ~rename:(fun () -> if missed () then "kb.session_miss" else "kb.session_hit")
    call;
  let after = Kb.Session.counters session in
  count "kb.hits" (after.hits - before.hits);
  count "kb.misses" (after.misses - before.misses);
  if after.misses > before.misses then
    decompose_read (Kb.Session.store session) req

(* ------------------------------------------------------------------ *)
(* Replays                                                             *)
(* ------------------------------------------------------------------ *)

let load_line src = J.to_string (J.Obj [ ("op", J.String "load"); ("src", J.String src) ])

let replay_kb_read dir =
  let src = read_file (Filename.concat dir "kb.olp") in
  let warm = read_lines (Filename.concat dir "warm.jsonl") in
  let stream = read_lines (Filename.concat dir "stream.jsonl") in
  let engine = Server.Engine.create () in
  let session = Server.Engine.session engine in
  request "req.load" (fun () ->
      ignore (span "lang.parse" (fun () -> Lang.Parser.parse_file src));
      ignore (serve engine (load_line src)));
  (* warm-up: every distinct key once, through the wire path; the misses
     are decomposed *)
  List.iter
    (fun line ->
      request "req.warm" (fun () ->
          let before = (Kb.Session.counters session).misses in
          let req, _ = serve engine line in
          if (Kb.Session.counters session).misses > before then
            decompose_read (Kb.Session.store session) req))
    warm;
  (* the timed stream: wire path, then the same lookup straight on the
     session (a hit after warm-up) *)
  List.iter
    (fun line ->
      request "req.read" (fun () ->
          let req, _ = serve engine line in
          session_read session req))
    stream

let persistence p =
  { Server.Engine.snapshot = (fun () -> Persist.snapshot p);
    seq = (fun () -> Persist.seq p);
    epoch = (fun () -> Persist.epoch p);
    wait_durable = (fun () -> Persist.wait_durable p);
    tail =
      (fun ~from ~max ->
        match Persist.tail p ~from ~max with
        | Ok x -> Ok x
        | Error (`Too_old base) -> Error base);
    snapshot_image = (fun () -> Persist.snapshot_image p)
  }

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* A durable node as olp serve --data-dir builds one: every mutation is
   appended (one fsync each) before the new version is published. *)
let durable_node dir =
  rm_rf dir;
  let metrics = Governor.Metrics.create () in
  let p, store, _ =
    Persist.open_dir ~metrics
      { Persist.dir; fsync = true; snapshot_every = 0; group_commit_ms = 0 }
  in
  let session = Kb.Session.of_store store in
  Kb.Session.on_mutation session (fun m ->
      span "persist.append" (fun () -> Persist.append p m));
  (p, session, metrics)

let decode_records raw =
  let rec go pos acc =
    match Persist.Record.unframe raw ~pos with
    | Persist.Record.End -> List.rev acc
    | Persist.Record.Torn d -> failwith ("probe: torn shipped record: " ^ d)
    | Persist.Record.Frame { payload; next } -> (
      match Persist.Record.decode_mutation payload with
      | Ok m -> go next (m :: acc)
      | Error d -> failwith ("probe: undecodable record: " ^ d))
  in
  go 0 []

(* Ship everything the primary logged past the replica's position and
   apply it as the replica link does: one session batch, then settle the
   replica's log. *)
let ship ~name primary replica rsession =
  match Persist.tail primary ~from:(Persist.seq replica) ~max:512 with
  | Error _ -> failwith "probe: primary log compacted under the replay"
  | Ok (_, 0) -> ()
  | Ok (raw, n) ->
    span name (fun () ->
        let ms = decode_records raw in
        Kb.Session.apply_batch rsession ms;
        Persist.wait_durable replica);
    count "replica.records_shipped" n;
    count "replica.batches" 1

let is_write line =
  match (decode line).J.verb with
  | J.Add_rule _ | J.Remove_rule _ | J.Set_preference _
  | J.Clear_preference _ ->
    true
  | _ -> false

let replay_write_mix dir pass =
  let src = read_file (Filename.concat dir "kb.olp") in
  let warm = read_lines (Filename.concat dir "warm.jsonl") in
  let stream = read_lines (Filename.concat dir "stream.jsonl") in
  let tmp name = Filename.concat dir (Printf.sprintf "%s-%d" name pass) in
  let pa, asession, ametrics = durable_node (tmp "trace-primary") in
  let engine =
    Server.Engine.create ~session:asession ~persistence:(persistence pa) ()
  in
  let pr, rsession, _ = durable_node (tmp "trace-replica") in
  (* the primary's session again, without the wire or the log, for the
     parse and session-mutate spans *)
  let bsession = Kb.Session.create () in
  let readers =
    List.sort_uniq compare
      (List.filter_map
         (fun line ->
           match (decode line).J.verb with
           | J.Query { obj; _ } | J.Models { obj; _ } | J.Explain { obj; _ } ->
             Some obj
           | _ -> None)
         warm)
  in
  request "req.load" (fun () ->
      ignore (span "lang.parse" (fun () -> Lang.Parser.parse_file src));
      ignore (serve engine (load_line src)));
  Kb.Session.load bsession src;
  request "req.catchup" (fun () -> ship ~name:"replica.catchup" pa pr rsession);
  List.iter
    (fun line -> request "req.warm" (fun () -> session_read rsession (decode line)))
    warm;
  (* the hit rate covers the mixed stream, not the all-miss warm-up *)
  Hashtbl.remove counts "kb.hits";
  Hashtbl.remove counts "kb.misses";
  let c0 = Kb.Session.counters rsession in
  let bytes0 = Governor.Metrics.get ametrics "persist_bytes" in
  let fsyncs0 = Governor.Metrics.get ametrics "persist_fsyncs" in
  let pending = ref false in
  List.iter
    (fun line ->
      if is_write line then
        request "req.write" (fun () ->
            let req, _ = serve engine line in
            let m =
              match req.J.verb with
              | J.Add_rule { obj; rule } ->
                let r = span "lang.parse" (fun () -> Lang.Parser.parse_rule rule) in
                Kb.Store.Add_rule { obj; rule = r }
              | J.Remove_rule { obj; rule } ->
                let r = span "lang.parse" (fun () -> Lang.Parser.parse_rule rule) in
                Kb.Store.Remove_rule { obj; rule = r }
              | _ -> mutation_of req
            in
            let before = Kb.Store.to_program (Kb.Session.store bsession) in
            span "kb.session_mutate" (fun () -> Kb.Session.apply bsession m);
            decompose_write ~before ~after:(Kb.Session.store bsession)
              ~readers m;
            count "writes" 1;
            pending := true)
      else
        request "req.read" (fun () ->
            if !pending then begin
              ship ~name:"replica.apply_batch" pa pr rsession;
              pending := false
            end;
            session_read rsession (decode line)))
    stream;
  ship ~name:"replica.apply_batch" pa pr rsession;
  let c1 = Kb.Session.counters rsession in
  count "inc.repairs" (c1.repairs - c0.repairs);
  count "inc.fallbacks" (c1.fallbacks - c0.fallbacks);
  count "kb.evictions" (c1.evictions - c0.evictions);
  count "kb.kept" (c1.kept - c0.kept);
  count "persist.bytes" (Governor.Metrics.get ametrics "persist_bytes" - bytes0);
  count "persist.fsyncs" (Governor.Metrics.get ametrics "persist_fsyncs" - fsyncs0);
  if Kb.Session.fingerprint rsession <> Kb.Session.fingerprint asession then begin
    count "check.failed" 1;
    prerr_endline "probe: replica fingerprint differs from the primary's"
  end;
  Persist.close pa;
  Persist.close pr;
  rm_rf (tmp "trace-primary");
  rm_rf (tmp "trace-replica")

(* cli.jsonl: one instance per line, {"verb", "file", "search", "prefer",
   "limit", "lit"} — the arguments the timed run passes to olp. *)
let replay_cli dir =
  List.iter
    (fun line ->
      let j = parse_json line in
      let str k = match J.member k j with Some (J.String s) -> Some s | _ -> None in
      let verb = Option.get (str "verb") in
      let file = Filename.concat dir (Option.get (str "file")) in
      let compiled = str "search" = Some "compiled" in
      let limit = match J.member "limit" j with Some (J.Int n) -> Some n | _ -> None in
      request ("req." ^ verb) (fun () ->
          let src = read_file file in
          let prog, prefs = span "lang.parse" (fun () -> parse_instance src) in
          let id = viewpoint prog in
          let lit () = Lang.Parser.parse_literal (Option.get (str "lit")) in
          match verb with
          | "models" when J.member "prefer" j = Some (J.Bool true) ->
            let c =
              span "prefer.compile" (fun () ->
                  Prefer.Compile.compile (Prefer.Spec.make prog id prefs))
            in
            let g =
              note_gop
                (span "ground.gop_ground" (fun () -> Prefer.Compile.gop c))
            in
            if compiled then ignore (kernel g) else ignore (search g)
          | "models" ->
            let g = ground prog id in
            if compiled then ignore (kernel g)
            else begin
              let ms = complete "replay" (search ?limit g) in
              (* a limited stable answer must hold only stable models *)
              if limit <> None then begin
                let all =
                  complete "oracle" (Ordered.Stable.Naive.stable_models g)
                in
                if not (List.for_all (fun m -> List.exists (Logic.Interp.equal m) all) ms)
                then count "check.known_wrong" 1
              end
            end
          | "least" ->
            let g = ground prog id in
            ignore (span "core.lfp" (fun () -> Ordered.Vfix.least_model g))
          | "query" ->
            let g = ground prog id in
            let l = lit () in
            ignore (span "core.lfp" (fun () -> Ordered.Query.ask g l))
          | "explain" ->
            let g = ground prog id in
            let l = lit () in
            ignore (span "core.explain" (fun () -> Ordered.Explain.explain g l))
          | v -> failwith ("probe: unknown cli verb " ^ v)))
    (read_lines (Filename.concat dir "cli.jsonl"))

let trace workload dir =
  let pass = ref 0 in
  let run traced =
    incr pass;
    let pass = !pass in
    Hashtbl.reset counts;
    spans := [];
    tracing := traced = 1;
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    (match workload with
    | "kb-read" -> replay_kb_read dir
    | "kb-write-mix" -> replay_write_mix dir pass
    | "cli-cold" -> replay_cli dir
    | w -> failwith ("probe: unknown workload " ^ w));
    let wall = Unix.gettimeofday () -. t0 in
    tracing := false;
    let cs =
      Hashtbl.fold (fun k v acc -> (k, J.Int v) :: acc) counts []
      |> List.sort compare
    in
    (wall, J.Obj cs)
  in
  (* a first untraced pass warms the allocator and the page cache, so
     the overhead compares two passes on equal footing *)
  let _, counts_warm = run 0 in
  let wall0, counts0 = run 0 in
  let wall1, counts1 = run 1 in
  write_spans (Filename.concat dir "spans.tsv");
  emit
    (J.Obj
       [ ("untraced_s", J.Float wall0);
         ("traced_s", J.Float wall1);
         ("counts_warm", counts_warm);
         ("counts_untraced", counts0);
         ("counts_traced", counts1);
         ("spans", J.Int (List.length !spans))
       ])

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "oracle"; kb; states; keys ] -> oracle kb states keys
  | [ "naive"; file; mode ] -> naive file mode
  | [ "datadir"; dir ] -> datadir dir
  | [ "trace"; workload; dir ] -> trace workload dir
  | _ ->
    prerr_endline
      "usage: probe oracle KB STATES KEYS | naive FILE stable|prefer | \
       datadir DIR | trace WORKLOAD DIR";
    exit 2
