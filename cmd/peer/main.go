// Command peer runs a SimpleClient over real TCP against a cmd/broker
// instance, and can drive one-shot actions against other peers: send a
// file, submit a task, send an instant message.
//
// Usage:
//
//	peer -name sc1 -listen 127.0.0.1:7001 -broker nozomi=127.0.0.1:7000
//	peer ... -route sc2=127.0.0.1:7002 -sendfile sc2:1000000:4
//	peer ... -route sc2=127.0.0.1:7002 -task sc2:2.5
//	peer ... -route sc2=127.0.0.1:7002 -msg sc2:hello
//
// Without an action flag, the peer serves until interrupted.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"peerlab/internal/overlay"
	"peerlab/internal/realnet"
	"peerlab/internal/task"
	"peerlab/internal/transfer"
	"peerlab/internal/transport"
)

func main() {
	var (
		name     = flag.String("name", "peer0", "this peer's node name")
		listen   = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		broker   = flag.String("broker", "broker0=127.0.0.1:7000", "broker as name=addr")
		routes   = flag.String("route", "", "extra routes, comma-separated name=addr pairs")
		cpu      = flag.Float64("cpu", 1.0, "advertised CPU score")
		sendfile = flag.String("sendfile", "", "one-shot: peer:bytes:parts")
		submit   = flag.String("task", "", "one-shot: peer:workunits")
		msg      = flag.String("msg", "", "one-shot: peer:text")
	)
	flag.Parse()

	brokerName, brokerAddr, ok := strings.Cut(*broker, "=")
	if !ok {
		fatal("broker must be name=addr")
	}
	host, err := realnet.NewHost(*name, *listen, map[string]string{brokerName: brokerAddr}, 1)
	if err != nil {
		fatal("%v", err)
	}
	defer host.Close()
	if *routes != "" {
		for _, pair := range strings.Split(*routes, ",") {
			n, a, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				fatal("route must be name=addr: %q", pair)
			}
			host.SetRoute(n, a)
		}
	}

	// BootPeer, not NewClient + Start: a restarted peer reuses its name, and
	// a long-lived broker tombstones the previous incarnation's conn ids.
	client, err := overlay.BootPeer(host,
		transport.MakeAddr(brokerName, overlay.ServiceBroker),
		overlay.ClientConfig{
			CPUScore: *cpu,
			OnFile: func(rc transfer.Received) {
				fmt.Printf("received %q (%d bytes) from %s, verified=%v\n",
					rc.File.Name, rc.File.Size, rc.Sender, rc.Verified)
			},
			OnInstant: func(from, text string) {
				fmt.Printf("instant from %s: %s\n", from, text)
			},
		})
	if err != nil {
		fatal("boot: %v", err)
	}
	defer client.Stop()
	fmt.Printf("peer %q registered with broker %q; listening on %s\n",
		*name, brokerName, host.AddrOf())

	switch {
	case *sendfile != "":
		peer, size, parts := parseSendFile(*sendfile)
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i)
		}
		m, err := client.SendFile(peer, transfer.NewFile("cli-payload", data), parts)
		if err != nil {
			fatal("sendfile: %v", err)
		}
		fmt.Printf("sent %d bytes to %s in %d parts: petition %v, transmission %v\n",
			size, peer, parts, m.PetitionDelay(), m.TransmissionTime())
	case *submit != "":
		peer, unitsStr, ok := strings.Cut(*submit, ":")
		if !ok {
			fatal("task must be peer:workunits")
		}
		units, err := strconv.ParseFloat(unitsStr, 64)
		if err == nil && (math.IsNaN(units) || math.IsInf(units, 0) || units < 0) {
			err = task.ErrBadWork
		}
		if err != nil {
			fatal("bad work units: %v", err)
		}
		res, err := client.SubmitTask(peer, task.Task{Name: "cli-task", WorkUnits: units})
		if err != nil {
			fatal("task: %v", err)
		}
		fmt.Printf("task done on %s: ok=%v elapsed=%v\n", res.Peer, res.OK, res.Elapsed)
	case *msg != "":
		peer, text, ok := strings.Cut(*msg, ":")
		if !ok {
			fatal("msg must be peer:text")
		}
		if err := client.SendInstant(peer, text); err != nil {
			fatal("msg: %v", err)
		}
		fmt.Printf("instant delivered to %s\n", peer)
	default:
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
		fmt.Println("peer: shutting down")
	}
}

func parseSendFile(spec string) (peer string, size, parts int) {
	fields := strings.Split(spec, ":")
	if len(fields) != 3 {
		fatal("sendfile must be peer:bytes:parts")
	}
	size, err := strconv.Atoi(fields[1])
	if err != nil || size <= 0 {
		fatal("bad size %q", fields[1])
	}
	parts, err = strconv.Atoi(fields[2])
	if err != nil || parts <= 0 {
		fatal("bad parts %q", fields[2])
	}
	return fields[0], size, parts
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "peer: "+format+"\n", args...)
	os.Exit(1)
}
