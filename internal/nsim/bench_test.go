package nsim

import (
	"math/rand"
	"testing"
)

// benchNet builds an n-node random network (no apps) for Finalize
// benchmarks.
func benchNet(n int, cfg Config) *Network {
	r := rand.New(rand.NewSource(7))
	nw := New(cfg)
	side := 1.25 * float64(intSqrt(n))
	for i := 0; i < n; i++ {
		nw.AddNode(r.Float64()*side, r.Float64()*side)
	}
	return nw
}

func intSqrt(n int) int {
	i := 1
	for i*i < n {
		i++
	}
	return i
}

func BenchmarkFinalizeGrid(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nw := benchNet(1600, Config{Seed: 7})
		nw.Finalize()
	}
}

func BenchmarkEventsTyped(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nw := runChatty()
		if nw.EventsProcessed == 0 {
			b.Fatal("no events processed")
		}
	}
}

// chattyApp drives a workload that exercises timers, unicast, broadcast
// and loss: every node broadcasts on Init, echoes received "chat"
// messages back to the sender a bounded number of times, and re-arms a
// timer chain.
type chattyApp struct {
	echoes int
}

func (a *chattyApp) Init(n *Node) {
	n.Broadcast("chat", nil, 12)
	n.SetTimer(3, "tick", 0)
}

func (a *chattyApp) Receive(n *Node, m *Message) {
	if m.Kind == "chat" && a.echoes < 8 {
		a.echoes++
		n.Send(m.Src, "chat", nil, 12)
	}
}

func (a *chattyApp) Timer(n *Node, key string, data interface{}) {
	if c := data.(int); c < 5 {
		n.SetTimer(2, key, c+1)
	}
}

func runChatty() *Network {
	nw := New(Config{Seed: 42, LossRate: 0.1, MaxSkew: 6, Retries: 1})
	for q := 0; q < 3; q++ {
		for p := 0; p < 3; p++ {
			nw.AddNode(float64(p), float64(q)).App = &chattyApp{}
		}
	}
	nw.Finalize()
	nw.Run(0)
	return nw
}
