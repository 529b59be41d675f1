// Command rtpbctl drives a running rtpbd primary through its control
// interface: register objects, declare inter-object constraints, write
// and read values, and query status.
//
//	rtpbctl -addr 127.0.0.1:7777 register alt 64 40ms 50ms 200ms
//	rtpbctl -addr 127.0.0.1:7777 relate accel lift 60ms
//	rtpbctl -addr 127.0.0.1:7777 write alt "9000 ft"
//	rtpbctl -addr 127.0.0.1:7777 read alt
//	rtpbctl -addr 127.0.0.1:7777 status
//	rtpbctl -addr 127.0.0.1:7777 repair               # peer repair-cycle state
//	rtpbctl -addr 127.0.0.1:7777 observers           # observer tier and chain position
//	rtpbctl -addr 127.0.0.1:7777 recruit 10.0.0.9:7000
//	rtpbctl -addr 127.0.0.1:7777 logstat             # durable store inventory
//	rtpbctl -addr 127.0.0.1:7777 snapshot            # force a durable snapshot
//	rtpbctl -addr 127.0.0.1:7777 clock               # clock-sync estimate and θ
//	rtpbctl -addr 127.0.0.1:7777 bench alt 40ms 5s   # periodic writes
//
// Against a sharded cluster's control endpoint (internal/ctl.ShardServer)
// the same register/write/read verbs route transparently, and two
// cluster-level queries become available:
//
//	rtpbctl -addr 127.0.0.1:7777 shards              # per-shard status table
//	rtpbctl -addr 127.0.0.1:7777 route alt           # which shard serves alt
//
// Against a gateway endpoint (internal/ctl.GatewayServer, rtpbd
// -gateway) write/read/register work the same, and the session/group
// surface appears:
//
//	rtpbctl -addr 127.0.0.1:7878 bind cockpit alt speed  # group's objects
//	rtpbctl -addr 127.0.0.1:7878 sub cockpit             # stream frames
//	rtpbctl -addr 127.0.0.1:7878 groups
//	rtpbctl -addr 127.0.0.1:7878 sessions
package main

import (
	"encoding/base64"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rtpb/internal/ctl"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rtpbctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rtpbctl", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7777", "primary's control address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("usage: rtpbctl [-addr host:port] <register|relate|write|read|status|repair|observers|recruit|logstat|snapshot|clock|bench> args...")
	}

	// Validate the subcommand before touching the network.
	sub := strings.ToLower(rest[0])
	arity := map[string]struct {
		n     int
		usage string
	}{
		"register":  {6, "register <name> <size> <period> <deltaP> <deltaB>"},
		"relate":    {4, "relate <nameI> <nameJ> <deltaIJ>"},
		"write":     {3, "write <name> <value>"},
		"read":      {2, "read <name>"},
		"status":    {1, "status"},
		"repair":    {1, "repair"},
		"observers": {1, "observers"},
		"recruit":   {2, "recruit <addr>"},
		"logstat":   {1, "logstat"},
		"snapshot":  {1, "snapshot"},
		"clock":     {1, "clock"},
		"bench":     {4, "bench <name> <period> <duration>"},
		"shards":    {1, "shards"},
		"route":     {2, "route <object>"},
		"sub":       {2, "sub <group>"},
		"groups":    {1, "groups"},
		"sessions":  {1, "sessions"},
		"bind":      {-1, "bind <group> <object> [<object>...]"},
	}
	want, known := arity[sub]
	if !known {
		return fmt.Errorf("unknown subcommand %q", rest[0])
	}
	if want.n < 0 {
		if len(rest) < 3 {
			return fmt.Errorf("usage: %s", want.usage)
		}
	} else if len(rest) != want.n {
		return fmt.Errorf("usage: %s", want.usage)
	}

	c, err := ctl.Dial(*addr)
	if err != nil {
		return err
	}
	defer c.Close()

	switch sub {
	case "register":
		return doPrint(c, "REGISTER "+strings.Join(rest[1:], " "))
	case "relate":
		return doPrint(c, "RELATE "+strings.Join(rest[1:], " "))
	case "write":
		return doPrint(c, "WRITE "+rest[1]+" "+base64.StdEncoding.EncodeToString([]byte(rest[2])))
	case "read":
		reply, err := c.Do("READ " + rest[1])
		if err != nil {
			return err
		}
		return printRead(reply)
	case "status":
		reply, err := c.Do("STATUS")
		if err != nil {
			return err
		}
		return printStatus(reply)
	case "repair":
		return doPrint(c, "REPAIR")
	case "observers":
		reply, err := c.Do("OBSERVERS")
		if err != nil {
			return err
		}
		return printObservers(reply)
	case "recruit":
		return doPrint(c, "RECRUIT "+rest[1])
	case "logstat":
		reply, err := c.Do("LOGSTAT")
		if err != nil {
			return err
		}
		return printLogstat(reply)
	case "snapshot":
		return doPrint(c, "SNAPSHOT")
	case "clock":
		return doPrint(c, "CLOCK")
	case "shards":
		reply, err := c.Do("SHARDS")
		if err != nil {
			return err
		}
		return printShards(reply)
	case "route":
		return doPrint(c, "ROUTE "+rest[1])
	case "sub":
		return subscribe(c, rest[1])
	case "groups":
		return doPrint(c, "GROUPS")
	case "sessions":
		return doPrint(c, "SESSIONS")
	case "bind":
		return doPrint(c, "BIND "+strings.Join(rest[1:], " "))
	default: // bench
		return bench(c, rest[1], rest[2], rest[3])
	}
}

// subscribe joins a gateway group and streams its broadcast frames (one
// certified object image per line) until the connection closes.
func subscribe(c *ctl.Client, group string) error {
	reply, err := c.Do("SUB " + group)
	if err != nil {
		return err
	}
	fmt.Println(reply)
	if !strings.HasPrefix(reply, "OK") {
		os.Exit(2)
	}
	for {
		line, err := c.ReadLine()
		if err != nil {
			return nil // connection closed: subscription over
		}
		fields := strings.Fields(line)
		// EVENT <group> <object> <seq> <b64> <version> age=... delta=... mode=...
		if len(fields) >= 6 && fields[0] == "EVENT" {
			if value, err := base64.StdEncoding.DecodeString(fields[4]); err == nil {
				fmt.Printf("%s %s seq=%s %q version=%s %s\n",
					fields[1], fields[2], fields[3], value, fields[5],
					strings.Join(fields[6:], " "))
				continue
			}
		}
		fmt.Println(line)
	}
}

func doPrint(c *ctl.Client, line string) error {
	reply, err := c.Do(line)
	if err != nil {
		return err
	}
	fmt.Println(reply)
	if strings.HasPrefix(reply, "ERR") || strings.HasPrefix(reply, "REJECT") {
		os.Exit(2)
	}
	return nil
}

// printStatus renders the STATUS reply
//
//	OK role=<primary|backup> objects=<n> utilization=<u> epoch=<e>
//	  backupAlive=<bool> transitions=<n> cpu=<real|modelled>
//	  cpu_busy_ms=<ms> cpu_queue=<n>
//
// as an aligned one-row table. Replies from an older daemon (no role=
// field) are printed verbatim; executor fields it does not send show
// as "-".
func printStatus(reply string) error {
	if !strings.HasPrefix(reply, "OK ") {
		fmt.Println(reply)
		os.Exit(2)
	}
	kv := map[string]string{}
	for _, f := range strings.Fields(reply)[1:] {
		if k, v, ok := strings.Cut(f, "="); ok {
			kv[k] = v
		}
	}
	if kv["role"] == "" {
		fmt.Println(reply)
		return nil
	}
	for _, k := range []string{"cpu", "cpu_busy_ms", "cpu_queue"} {
		if kv[k] == "" {
			kv[k] = "-"
		}
	}
	const row = "%-8s %-8s %-12s %-6s %-7s %-12s %-9s %-12s %s\n"
	fmt.Printf(row, "ROLE", "OBJECTS", "UTILIZATION", "EPOCH", "BACKUP",
		"TRANSITIONS", "CPU", "CPU_BUSY_MS", "CPU_QUEUE")
	fmt.Printf(row, kv["role"], kv["objects"], kv["utilization"], kv["epoch"],
		kv["backupAlive"], kv["transitions"], kv["cpu"], kv["cpu_busy_ms"],
		kv["cpu_queue"])
	return nil
}

// printShards renders the SHARDS reply
//
//	OK shards=<k> [| <i> primary=<addr> epoch=<e> objects=<n>
//	  utilization=<u> backupAlive=<bool> promotions=<p>]...
//
// as an aligned table, one shard per row.
func printShards(reply string) error {
	if !strings.HasPrefix(reply, "OK ") {
		fmt.Println(reply)
		os.Exit(2)
	}
	segments := strings.Split(reply, " | ")
	fmt.Printf("%-6s %-24s %-6s %-8s %-12s %-7s %s\n",
		"SHARD", "PRIMARY", "EPOCH", "OBJECTS", "UTILIZATION", "BACKUP", "PROMOTIONS")
	for _, seg := range segments[1:] {
		fields := strings.Fields(seg)
		if len(fields) == 0 {
			continue
		}
		kv := map[string]string{}
		for _, f := range fields[1:] {
			if k, v, ok := strings.Cut(f, "="); ok {
				kv[k] = v
			}
		}
		fmt.Printf("%-6s %-24s %-6s %-8s %-12s %-7s %s\n",
			fields[0], kv["primary"], kv["epoch"], kv["objects"],
			kv["utilization"], kv["backupAlive"], kv["promotions"])
	}
	return nil
}

// printLogstat renders the LOGSTAT reply
//
//	OK segments=<n> prunable_segments=<n> prunable_epochs=<n> pruned=<n>
//	  snapshots=<n> last_snapshot_epoch=<e> epoch=<e> appended=<n>
//	  dropped=<n> source=<disk|network|none> restored=<n>
//
// as a two-row aligned table: the store's segment/snapshot inventory and
// how this replica's state was recovered. "PRUNABLE" is segments(epochs)
// already covered by the newest snapshot — what the next prune drops.
func printLogstat(reply string) error {
	if !strings.HasPrefix(reply, "OK ") {
		fmt.Println(reply)
		os.Exit(2)
	}
	kv := map[string]string{}
	for _, f := range strings.Fields(reply)[1:] {
		if k, v, ok := strings.Cut(f, "="); ok {
			kv[k] = v
		}
	}
	if kv["segments"] == "" {
		fmt.Println(reply)
		return nil
	}
	fmt.Printf("%-9s %-12s %-7s %-10s %-10s %-6s %-9s %-8s %-8s %s\n",
		"SEGMENTS", "PRUNABLE", "PRUNED", "SNAPSHOTS", "SNAPEPOCH", "EPOCH",
		"APPENDED", "DROPPED", "SOURCE", "RESTORED")
	fmt.Printf("%-9s %-12s %-7s %-10s %-10s %-6s %-9s %-8s %-8s %s\n",
		kv["segments"],
		fmt.Sprintf("%s(%sep)", kv["prunable_segments"], kv["prunable_epochs"]),
		kv["pruned"], kv["snapshots"], kv["last_snapshot_epoch"], kv["epoch"],
		kv["appended"], kv["dropped"], kv["source"], kv["restored"])
	return nil
}

// printObservers renders the OBSERVERS reply
//
//	OK observers=<n> depth=<d> theta=<dur> [| <addr> alive=<bool>
//	  syncing=<bool>]...
//
// as a summary line plus one row per attached observer peer.
func printObservers(reply string) error {
	if !strings.HasPrefix(reply, "OK ") {
		fmt.Println(reply)
		os.Exit(2)
	}
	segments := strings.Split(reply, " | ")
	kv := map[string]string{}
	for _, f := range strings.Fields(segments[0])[1:] {
		if k, v, ok := strings.Cut(f, "="); ok {
			kv[k] = v
		}
	}
	fmt.Printf("observers=%s chain depth=%s theta=%s\n",
		kv["observers"], kv["depth"], kv["theta"])
	if len(segments) > 1 {
		fmt.Printf("%-24s %-7s %s\n", "OBSERVER", "ALIVE", "SYNCING")
		for _, seg := range segments[1:] {
			fields := strings.Fields(seg)
			if len(fields) == 0 {
				continue
			}
			skv := map[string]string{}
			for _, f := range fields[1:] {
				if k, v, ok := strings.Cut(f, "="); ok {
					skv[k] = v
				}
			}
			fmt.Printf("%-24s %-7s %s\n", fields[0], skv["alive"], skv["syncing"])
		}
	}
	return nil
}

// printRead renders a READ reply, including the staleness-certificate
// fields (age=<dur> delta=<dur> mode=<m>) newer daemons append; older
// three-field replies print without them.
func printRead(reply string) error {
	fields := strings.Fields(reply)
	if len(fields) >= 3 && fields[0] == "OK" {
		value, err := base64.StdEncoding.DecodeString(fields[1])
		if err == nil {
			fmt.Printf("%q version=%s", value, fields[2])
			if len(fields) > 3 {
				fmt.Printf(" %s", strings.Join(fields[3:], " "))
			}
			fmt.Println()
			return nil
		}
	}
	fmt.Println(reply)
	return nil
}

// bench issues periodic writes for a while and reports the response-time
// distribution seen by this client.
func bench(c *ctl.Client, name, periodStr, durStr string) error {
	period, err := time.ParseDuration(periodStr)
	if err != nil {
		return err
	}
	dur, err := time.ParseDuration(durStr)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(dur)
	var latencies []time.Duration
	payload := []byte(fmt.Sprintf("bench-%d", time.Now().UnixNano()))
	for i := 0; time.Now().Before(deadline); i++ {
		start := time.Now()
		reply, err := c.Write(name, payload)
		if err != nil {
			return err
		}
		if !strings.HasPrefix(reply, "OK") {
			return fmt.Errorf("write %d failed: %s", i, reply)
		}
		latencies = append(latencies, time.Since(start))
		time.Sleep(time.Until(start.Add(period)))
	}
	if len(latencies) == 0 {
		return fmt.Errorf("no writes completed")
	}
	var total, worst time.Duration
	for _, l := range latencies {
		total += l
		if l > worst {
			worst = l
		}
	}
	fmt.Printf("writes=%d mean=%v max=%v\n",
		len(latencies), total/time.Duration(len(latencies)), worst)
	return nil
}
