let nic =
  {
    Net.Nic.rx_base = Sim.Time.us 110;
    rx_byte = Sim.Time.ns 60;
    rx_mcast_extra = Sim.Time.us 90;
  }

(* 10 Mbit/s Ethernet: 0.8 us per byte. *)
let segment =
  { Net.Segment.byte_time = Sim.Time.ns 800; framing_bytes = 38; min_payload = 46 }

let switch_latency = Sim.Time.us 50

type costs = {
  machine : Machine.Mach.config;
  flip : Flip.Flip_iface.config;
  amoeba_rpc : Amoeba.Rpc.config;
  amoeba_group : Amoeba.Group.config;
  panda_system : Panda.System_layer.config;
  panda_rpc : Panda.Rpc.config;
  panda_group : Panda.Group.config;
}

let calibrated =
  {
    machine =
      {
        Machine.Mach.ctx_warm = Sim.Time.us 60;
        ctx_cold_idle = Sim.Time.us 70;
        ctx_cold_preempt = Sim.Time.us 110;
        interrupt_entry = Sim.Time.us 15;
        syscall_base = Sim.Time.us 25;
        trap_cost = Sim.Time.us 6;
        lock_cost = Sim.Time.us 1;
        reg_windows = 6;
      };
    flip =
      {
        Flip.Flip_iface.header_bytes = 40;
        mtu = 1460;
        out_packet_cost = Sim.Time.us 60;
        loopback_cost = Sim.Time.us 40;
        locate_timeout = Sim.Time.ms 100;
        locate_retries = 5;
      };
    amoeba_rpc =
      {
        Amoeba.Rpc.header_bytes = 56;
        copy_byte = Sim.Time.ns 50;
        deliver_fixed = Sim.Time.us 350;
        call_depth = 2;
        retrans_timeout = Sim.Time.ms 200;
        max_retries = 10;
      };
    amoeba_group =
      {
        Amoeba.Group.header_bytes = 52;
        accept_bytes = 32;
        copy_byte = Sim.Time.ns 50;
        deliver_fixed = Sim.Time.us 250;
        seq_process = Sim.Time.us 150;
        seq_batch_max = 1;
        seq_order_item = Sim.Time.us 40;
        call_depth = 2;
        bb_threshold = 1460;
        retrans_timeout = Sim.Time.ms 200;
        max_retries = 10;
        history_high = 512;
      };
    panda_system =
      {
        Panda.System_layer.pan_header = 16;
        frag_bytes = 1400;
        frag_cost = Sim.Time.us 20;
        copy_byte = Sim.Time.ns 50;
        recv_fixed = Sim.Time.us 50;
        upcall_depth = 3;
        send_depth = 3;
        user_flip_extra = Sim.Time.us 40;
        single_frag = false;
        sg_copy = false;
        rx_fastpath = false;
      };
    panda_rpc =
      {
        Panda.Rpc.header_bytes = 64;
        call_depth = 2;
        proc_cost = Sim.Time.us 80;
        ack_delay = Sim.Time.ms 20;
        retrans_timeout = Sim.Time.ms 200;
        max_retries = 10;
      };
    panda_group =
      {
        Panda.Group.header_bytes = 40;
        accept_bytes = 24;
        order_fixed = Sim.Time.us 190;
        deliver_cost = Sim.Time.us 90;
        copy_byte = Sim.Time.ns 50;
        bb_threshold = 1300;
        retrans_timeout = Sim.Time.ms 200;
        max_retries = 10;
        history_high = 512;
      };
  }

(* The optimized user-space stack (the paper's §6 "what could be fixed"
   program): same calibrated machine, different protocol engineering.
   Every difference is a mechanism the cost model can see — no cell of
   Table 1 is adjusted directly. *)
let optimized c =
  {
    c with
    panda_system =
      {
        c.panda_system with
        Panda.System_layer.single_frag = true;
        sg_copy = true;
        rx_fastpath = true;
      };
    panda_rpc = { c.panda_rpc with Panda.Rpc.header_bytes = 60 };
    panda_group = { c.panda_group with Panda.Group.header_bytes = 36; accept_bytes = 20 };
  }

let rts_overhead = Sim.Time.us 10
let pool_size_max = 32

(* The one-sided (RDMA-style) backend: user-level posting, NIC-completed
   target ops.  The figures are early-RDMA-class (VIA/InfiniBand host
   overheads of a few microseconds), deliberately independent of the wire
   era — the profile decides the wire, these decide the endpoints. *)
let onesided =
  {
    Onesided.Rnic.os_header = 28;
    post_cost = Sim.Time.us 8;
    completion_cost = Sim.Time.us 6;
    op_fixed = Sim.Time.us 5;
    op_word = Sim.Time.ns 10;
    retrans_timeout = Sim.Time.ms 200;
    max_retries = 10;
  }

(* Network-era profiles: the wire, the switch, and the NIC change with the
   era; the 1995 machine and protocol-software constants deliberately do
   not.  That isolation is the point — as the network gets faster, the
   fixed per-message protocol CPU is exposed as the bottleneck, which is
   the historical argument for one-sided operations. *)

type net_profile = {
  np_name : string;  (** the [--profile] spelling *)
  np_label : string;
  np_segment : Net.Segment.config;
  np_nic : Net.Nic.config;
  np_switch : Sim.Time.span;
}

(* 10 Mbit/s Ethernet, the paper's own wire: byte_time 800 ns. *)
let net10m =
  {
    np_name = "net10m";
    np_label = "10 Mbit/s Ethernet (1995 baseline)";
    np_segment = segment;
    np_nic = nic;
    np_switch = switch_latency;
  }

(* 100 Mbit/s switched Ethernet: byte_time 80 ns, a leaner NIC. *)
let net100m =
  {
    np_name = "net100m";
    np_label = "100 Mbit/s switched Ethernet";
    np_segment =
      { Net.Segment.byte_time = Sim.Time.ns 80; framing_bytes = 38; min_payload = 46 };
    np_nic =
      {
        Net.Nic.rx_base = Sim.Time.us 60;
        rx_byte = Sim.Time.ns 30;
        rx_mcast_extra = Sim.Time.us 45;
      };
    np_switch = Sim.Time.us 20;
  }

(* Gigabit-class fabric: byte_time 8 ns, low-latency cut-through switch. *)
let net1g =
  {
    np_name = "net1g";
    np_label = "1 Gbit/s low-latency fabric";
    np_segment =
      { Net.Segment.byte_time = Sim.Time.ns 8; framing_bytes = 38; min_payload = 46 };
    np_nic =
      {
        Net.Nic.rx_base = Sim.Time.us 20;
        rx_byte = Sim.Time.ns 5;
        rx_mcast_extra = Sim.Time.us 15;
      };
    np_switch = Sim.Time.us 5;
  }

(* 10G-class fabric.  Integer nanoseconds cannot express 0.8 ns/byte, so
   byte_time 1 ns (8 Gbit/s) stands in for the 10 Gbit era; the
   endpoint-bound conclusions are unaffected. *)
let net10g =
  {
    np_name = "net10g";
    np_label = "10 Gbit-class fabric (8 Gbit/s: integer-ns floor)";
    np_segment =
      { Net.Segment.byte_time = Sim.Time.ns 1; framing_bytes = 38; min_payload = 46 };
    np_nic =
      {
        Net.Nic.rx_base = Sim.Time.us 5;
        rx_byte = Sim.Time.ns 1;
        rx_mcast_extra = Sim.Time.us 3;
      };
    np_switch = Sim.Time.us 1;
  }

let net_profiles = [ net10m; net100m; net1g; net10g ]

let net_profile_of_string s =
  List.find_opt (fun p -> String.equal p.np_name s) net_profiles

(* Profile files: one "key value" pair per line, integers in
   nanoseconds/bytes, so a fitted profile survives a round-trip through
   disk bit-exactly.  The format is deliberately dumb — calibration
   (lib/scenario) writes these, the [--profile] flag reads them. *)

let net_profile_to_string p =
  let b = Buffer.create 256 in
  Buffer.add_string b "# amoeba-repro net profile v1\n";
  Printf.bprintf b "name %s\n" p.np_name;
  Printf.bprintf b "label %s\n" p.np_label;
  Printf.bprintf b "byte_time_ns %d\n" p.np_segment.Net.Segment.byte_time;
  Printf.bprintf b "framing_bytes %d\n" p.np_segment.Net.Segment.framing_bytes;
  Printf.bprintf b "min_payload %d\n" p.np_segment.Net.Segment.min_payload;
  Printf.bprintf b "nic_rx_base_ns %d\n" p.np_nic.Net.Nic.rx_base;
  Printf.bprintf b "nic_rx_byte_ns %d\n" p.np_nic.Net.Nic.rx_byte;
  Printf.bprintf b "nic_rx_mcast_extra_ns %d\n" p.np_nic.Net.Nic.rx_mcast_extra;
  Printf.bprintf b "switch_ns %d\n" p.np_switch;
  Buffer.contents b

let net_profile_parse s =
  let tbl = Hashtbl.create 16 in
  let err = ref None in
  String.split_on_char '\n' s
  |> List.iteri (fun i line ->
         let line = String.trim line in
         if line <> "" && line.[0] <> '#' && !err = None then
           match String.index_opt line ' ' with
           | None -> err := Some (Printf.sprintf "line %d: no value" (i + 1))
           | Some sp ->
             let k = String.sub line 0 sp in
             let v = String.trim (String.sub line sp (String.length line - sp)) in
             if Hashtbl.mem tbl k then
               err := Some (Printf.sprintf "line %d: duplicate key %s" (i + 1) k)
             else Hashtbl.add tbl k v);
  match !err with
  | Some e -> Error e
  | None ->
    let str k =
      match Hashtbl.find_opt tbl k with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing key %s" k)
    in
    let int k =
      match str k with
      | Error _ as e -> e
      | Ok v -> (
        match int_of_string_opt v with
        | Some n when n >= 0 -> Ok n
        | _ -> Error (Printf.sprintf "key %s: bad integer %S" k v))
    in
    let ( let* ) = Result.bind in
    let* np_name = str "name" in
    let* np_label = str "label" in
    let* byte_time = int "byte_time_ns" in
    let* framing_bytes = int "framing_bytes" in
    let* min_payload = int "min_payload" in
    let* rx_base = int "nic_rx_base_ns" in
    let* rx_byte = int "nic_rx_byte_ns" in
    let* rx_mcast_extra = int "nic_rx_mcast_extra_ns" in
    let* np_switch = int "switch_ns" in
    if byte_time < 1 then Error "byte_time_ns must be positive"
    else
      Ok
        {
          np_name;
          np_label;
          np_segment = { Net.Segment.byte_time; framing_bytes; min_payload };
          np_nic = { Net.Nic.rx_base; rx_byte; rx_mcast_extra };
          np_switch;
        }

let net_profile_load path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> net_profile_parse s
  | exception Sys_error e -> Error e

let net_profile_save path p =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (net_profile_to_string p))
