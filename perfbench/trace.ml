(* Span recorder for the traced benchmark runs.

   Spans are recorded by the benchmark around its calls into each
   layer's public functions: a span has a name ("layer.call"), start and
   end times, the span that encloses it and the id of the operation it
   belongs to. Spans stay in memory and are written out once, at the
   end, as Chrome trace-event JSON (Perfetto and chrome://tracing open
   it). A span's self time is its duration minus the time its direct
   children cover. *)

type span = {
  id : int;
  parent : int;  (** -1 for an operation's root span *)
  name : string;
  op : int;
  t0 : float;
  mutable t1 : float;
}

type t = {
  mutable spans : span list;  (** finished spans, newest first *)
  mutable stack : span list;  (** open spans, innermost first *)
  mutable next_id : int;
  origin : float;
}

let create () = { spans = []; stack = []; next_id = 0; origin = Unix.gettimeofday () }

let with_span tr ~op name f =
  let parent = match tr.stack with s :: _ -> s.id | [] -> -1 in
  let s = { id = tr.next_id; parent; name; op; t0 = Unix.gettimeofday (); t1 = nan } in
  tr.next_id <- tr.next_id + 1;
  tr.stack <- s :: tr.stack;
  Fun.protect
    ~finally:(fun () ->
      s.t1 <- Unix.gettimeofday ();
      tr.stack <- List.tl tr.stack;
      tr.spans <- s :: tr.spans)
    f

let spans tr = List.rev tr.spans
let duration s = s.t1 -. s.t0

(* The layer a span belongs to is the prefix of its name; root spans
   (the whole operation) carry the benchmark's own glue. *)
let layer s =
  if s.parent < 0 then "glue"
  else match String.index_opt s.name '.' with Some i -> String.sub s.name 0 i | None -> s.name

(* Self time per span: duration minus the durations of its direct
   children. Summed over all spans of an operation this is exactly the
   root's duration. *)
let self_times tr =
  let spans = spans tr in
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id)))
    spans

(* Total self seconds per layer, and the summed duration of the roots
   (the traced operation wall). *)
let layer_self tr =
  let by_layer = Hashtbl.create 8 in
  let root_total = ref 0.0 in
  List.iter
    (fun (s, self) ->
      if s.parent < 0 then root_total := !root_total +. duration s;
      let l = layer s in
      Hashtbl.replace by_layer l (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer l)))
    (self_times tr);
  (by_layer, !root_total)

(* Durations of every span with this name, in seconds. *)
let durations tr name =
  List.filter_map (fun s -> if s.name = name then Some (duration s) else None) (spans tr)

let write_chrome tr ~path ~meta =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
      List.iteri
        (fun i (k, v) -> Printf.fprintf oc "%s%S:%S" (if i = 0 then "" else ",") k v)
        meta;
      output_string oc "},\"traceEvents\":[";
      List.iteri
        (fun i (s, self) ->
          Printf.fprintf oc
            "%s\n{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\"self_us\":%.3f}}"
            (if i = 0 then "" else ",")
            s.name (layer s)
            ((s.t0 -. tr.origin) *. 1e6)
            (duration s *. 1e6)
            s.id s.parent s.op (self *. 1e6))
        (self_times tr);
      output_string oc "\n]}\n")
