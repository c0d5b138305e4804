package overlay

import (
	"testing"
	"time"

	"peerlab/internal/realnet"
	"peerlab/internal/simnet"
	"peerlab/internal/transport"
	"peerlab/internal/wire"
)

// checkAdvertisedAddresses asks the broker, through c, for the whole peer
// directory and demands that every advertisement's transfer address is
// MakeAddr(name, ServiceTransfer): a peer's transfer address is a function of
// its name, whoever built its advertisement, so clients compute it.
func checkAdvertisedAddresses(t *testing.T, c *Client, step string) {
	t.Helper()
	reply, err := c.call(c.broker, discoverFrame)
	if err != nil {
		t.Errorf("%s: discover: %v", step, err)
		return
	}
	kind, d, err := wire.Tag(reply)
	if err != nil || kind != mtDiscoverResult {
		t.Errorf("%s: discover reply of kind %d: %v", step, kind, err)
		return
	}
	dir, err := scanDiscoverResult(d)
	advs := dir.Decode()
	if err != nil || len(advs) == 0 {
		t.Errorf("%s: discover reply of %d advertisements: %v", step, len(advs), err)
		return
	}
	for _, a := range advs {
		if want := string(transport.MakeAddr(a.Name, ServiceTransfer)); a.Addr != want {
			t.Errorf("%s: %s advertised at %q, want %q", step, a.Name, a.Addr, want)
		}
	}
}

// TestTransferAddressIsAdvertised holds the broker's directory to the rule
// that lets a client compute a peer's transfer address instead of asking for
// it: whether an advertisement came from a register, from a lapsed lease
// rebuilt by a stats or piece report, or from a churn rejoin through
// BootPeer, and on either transport, its address is the one its name implies.
func TestTransferAddressIsAdvertised(t *testing.T) {
	t.Run("simnet", func(t *testing.T) {
		const ttl = time.Minute
		n := simnet.New(31)
		bhost := n.MustAddNode("broker0", simnet.DefaultProfile())
		broker, err := NewBroker(bhost, BrokerConfig{AdvTTL: ttl})
		if err != nil {
			t.Fatal(err)
		}
		nodes, clients := map[string]*simnet.Node{}, map[string]*Client{}
		for _, name := range []string{"sc1", "sc2", "sc3"} {
			nodes[name] = n.MustAddNode(name, clientProfile())
			clients[name] = NewClient(nodes[name], broker.Addr(), ClientConfig{})
		}
		n.Run(func() {
			for _, name := range []string{"sc1", "sc2", "sc3"} {
				if err := clients[name].Start(); err != nil {
					t.Errorf("start %s: %v", name, err)
					return
				}
			}
			checkAdvertisedAddresses(t, clients["sc1"], "registered")

			// Every lease lapses; a stats report and a piece report rebuild
			// their senders' advertisements through leaseOf.
			bhost.Sleep(2 * ttl)
			if err := clients["sc2"].ReportStats(); err != nil {
				t.Errorf("sc2 report: %v", err)
			}
			if err := clients["sc3"].ReportPieces([]int{0}, nil); err != nil {
				t.Errorf("sc3 piece report: %v", err)
			}
			if got := broker.Peers(); len(got) != 2 || got[0] != "sc2" || got[1] != "sc3" {
				t.Errorf("directory after the lapse = %v, want the two rebuilt [sc2 sc3]", got)
			}
			checkAdvertisedAddresses(t, clients["sc2"], "resurrected")

			// sc3 leaves and its node rejoins as a fresh incarnation.
			clients["sc3"].Stop()
			bhost.Sleep(time.Second)
			c, err := BootPeer(nodes["sc3"], broker.Addr(), ClientConfig{CPUScore: 2})
			if err != nil {
				t.Errorf("rejoin sc3: %v", err)
				return
			}
			defer c.Stop()
			checkAdvertisedAddresses(t, c, "rejoined")
		})
	})
	t.Run("realnet", func(t *testing.T) {
		var hosts []*realnet.Host
		for i, name := range []string{"nozomi", "sc1", "sc2"} {
			h, err := realnet.NewHost(name, "127.0.0.1:0", nil, int64(40+i))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { h.Close() })
			hosts = append(hosts, h)
		}
		for _, h := range hosts {
			for _, peer := range hosts {
				h.SetRoute(peer.Name(), peer.AddrOf())
			}
		}
		if _, err := NewBroker(hosts[0], BrokerConfig{}); err != nil {
			t.Fatal(err)
		}
		var clients []*Client
		for _, h := range hosts[1:] {
			c := NewClient(h, "nozomi/broker", ClientConfig{})
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Stop)
			clients = append(clients, c)
		}
		checkAdvertisedAddresses(t, clients[0], "realnet")
	})
}
