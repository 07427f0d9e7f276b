(* Host-side spans recorded from the benchmark's own code, around each
   public library call.  Off by default; while on, every [span] keeps its
   name, wall-clock interval, parent, cell id, and the simulated events
   and minor-heap words that ran inside it.  Spans stay in memory until
   [chrome_json] writes them out. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  cell : int;  (** -1 outside any cell *)
  t0 : float;
  mutable t1 : float;
  mutable events : int;
  mutable minor_words : float;
}

let recording = ref false
let recorded : t list ref = ref []
let open_stack : t list ref = ref []
let next_id = ref 0
let current_cell = ref (-1)
let now = Unix.gettimeofday

let start () =
  recording := true;
  recorded := [];
  open_stack := [];
  next_id := 0

let stop () =
  recording := false;
  List.rev !recorded

(* [Sim.Engine.events_total] is flushed when each [run] returns, so the
   event delta is exact for spans that enclose whole runs. *)
let span ?cell name f =
  if not !recording then f ()
  else begin
    let cell = match cell with Some c -> c | None -> !current_cell in
    let saved_cell = !current_cell in
    current_cell := cell;
    let parent = match !open_stack with p :: _ -> p.id | [] -> -1 in
    let s =
      {
        id = !next_id;
        name;
        parent;
        cell;
        t0 = now ();
        t1 = 0.;
        events = Sim.Engine.events_total ();
        minor_words = Gc.minor_words ();
      }
    in
    incr next_id;
    open_stack := s :: !open_stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        s.events <- Sim.Engine.events_total () - s.events;
        s.minor_words <- Gc.minor_words () -. s.minor_words;
        open_stack := List.tl !open_stack;
        current_cell := saved_cell;
        recorded := s :: !recorded)
      f
  end

let duration s = s.t1 -. s.t0

(* Self time: a span's duration minus its children's.  Children never
   overlap (one thread), so the self times of a tree sum to its root. *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    spans

let chrome_json spans =
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans in
  let us x = Json.Num (Float.round (x *. 1e9) /. 1e3) in
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.Str s.name);
                   ("ph", Json.Str "X");
                   ("pid", Json.Num 1.);
                   ("tid", Json.Num 1.);
                   ("ts", us (s.t0 -. origin));
                   ("dur", us (duration s));
                   ( "args",
                     Json.Obj
                       [
                         ("id", Json.Num (float_of_int s.id));
                         ("parent", Json.Num (float_of_int s.parent));
                         ("cell", Json.Num (float_of_int s.cell));
                         ("sim_events", Json.Num (float_of_int s.events));
                         ("minor_words", Json.Num s.minor_words);
                       ] );
                 ])
             spans) );
      ("displayTimeUnit", Json.Str "ms");
    ]
