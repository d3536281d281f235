package core

import (
	"container/heap"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"
)

// Online_CP decision goldens: a fixed Poisson timeline of arrivals and
// departures is driven through a sequential Online_CP admitter, and the
// SHA-256 of the decision transcript is pinned. Every line records the
// chosen server, the selection and operational costs in shortest
// round-trip form, and the full directed hop list, so any change to
// which server wins, what it costs or how its pseudo-tree is realised
// moves the hash. Unlike the equivalence oracles, which compare one
// planner path with another, these constants pin the planner against
// its own recorded past decisions.
var cpDecisionGoldens = []struct {
	name     string
	topo     func() (*topology.Topology, error)
	erlangs  float64
	arrivals int
	sha256   string
}{
	{
		name: "waxman100-seed42",
		topo: func() (*topology.Topology, error) {
			return topology.WaxmanDegree(100, topology.DefaultAvgDegree, 0.14, 42)
		},
		erlangs:  320,
		arrivals: 2400,
		sha256:   "288a9e2d78b8cb312a8bde51125403b4368c4bb265cb3ec001c20ef10e6ca89c",
	},
	{
		name:     "geant",
		topo:     func() (*topology.Topology, error) { return topology.GEANT(), nil },
		erlangs:  160,
		arrivals: 2400,
		sha256:   "6539114e0c3532dcc68e3824bd6a51ce3230b3c1792fa8283455c9fd7b64265e",
	},
}

// goldenDeparture is a pending session end in the golden timeline.
type goldenDeparture struct {
	at float64
	id int
}

type goldenDepartures []goldenDeparture

func (q goldenDepartures) Len() int            { return len(q) }
func (q goldenDepartures) Less(i, j int) bool  { return q[i].at < q[j].at }
func (q goldenDepartures) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *goldenDepartures) Push(x interface{}) { *q = append(*q, x.(goldenDeparture)) }
func (q *goldenDepartures) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// cpTranscript replays the golden timeline and returns the transcript
// hash plus the event, admit and reject counts.
func cpTranscript(t *testing.T, topo *topology.Topology, erlangs float64, arrivals int) (sum string, events, admits, rejects int) {
	t.Helper()
	nw, err := sdn.NewNetwork(topo, sdn.DefaultConfig(), rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewOnlineCP(nw, DefaultCostModel(nw.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := multicast.NewPoissonGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(),
		multicast.PoissonConfig{ArrivalsPerHour: erlangs, MeanHoldingHours: 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	line := make([]byte, 0, 512)
	var pending goldenDepartures
	for i := 0; i < arrivals; i++ {
		tr, err := gen.Next()
		if err != nil {
			t.Fatal(err)
		}
		for pending.Len() > 0 && pending[0].at <= tr.ArrivalHours {
			d := heap.Pop(&pending).(goldenDeparture)
			if _, err := cp.Depart(d.id); err != nil {
				t.Fatalf("depart %d: %v", d.id, err)
			}
			fmt.Fprintf(h, "d %d\n", d.id)
			events++
		}
		events++
		sol, err := cp.Admit(tr.Request)
		if err != nil {
			if !IsRejection(err) {
				t.Fatalf("admit %d: %v", tr.ID, err)
			}
			fmt.Fprintf(h, "r %d\n", tr.ID)
			rejects++
			continue
		}
		admits++
		heap.Push(&pending, goldenDeparture{at: tr.DepartureHours, id: tr.ID})
		line = append(line[:0], 'a', ' ')
		line = strconv.AppendInt(line, int64(tr.ID), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(sol.Servers[0]), 10)
		line = append(line, ' ')
		line = strconv.AppendFloat(line, sol.SelectionCost, 'g', -1, 64)
		line = append(line, ' ')
		line = strconv.AppendFloat(line, sol.OperationalCost, 'g', -1, 64)
		for _, hop := range sol.Tree.Hops() {
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(hop.From), 10)
			line = append(line, '>')
			line = strconv.AppendInt(line, int64(hop.To), 10)
			line = append(line, '/')
			line = strconv.AppendInt(line, int64(hop.Edge), 10)
			if hop.Processed {
				line = append(line, '*')
			}
		}
		line = append(line, '\n')
		h.Write(line)
	}
	return hex.EncodeToString(h.Sum(nil)), events, admits, rejects
}

func TestOnlineCPDecisionGolden(t *testing.T) {
	for _, g := range cpDecisionGoldens {
		t.Run(g.name, func(t *testing.T) {
			topo, err := g.topo()
			if err != nil {
				t.Fatal(err)
			}
			sum, events, admits, rejects := cpTranscript(t, topo, g.erlangs, g.arrivals)
			t.Logf("%d events: %d admits, %d rejects, sha256 %s", events, admits, rejects, sum)
			if events < 4000 || rejects == 0 || admits == 0 {
				t.Fatalf("timeline too weak: %d events, %d admits, %d rejects", events, admits, rejects)
			}
			if sum != g.sha256 {
				t.Fatalf("Online_CP transcript hash = %s, want %s", sum, g.sha256)
			}
		})
	}
}
