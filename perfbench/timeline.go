package main

import (
	"container/heap"
	"errors"
	"sync"

	"nfvmcast/internal/core"
	"nfvmcast/internal/multicast"
)

// timeline replays one seeded Poisson stream of arrivals and
// departures in virtual-time order: before each arrival it departs
// every admitted session whose holding time ended earlier. Request IDs
// are base, base+step, ... so several timelines can share one engine.
type timeline struct {
	gen        *multicast.PoissonGenerator
	next       *multicast.TimedRequest
	live       departures
	base, step int
	drawn      int
}

func newTimeline(nodes int, erlangs, holdingHours float64, seed int64, base, step int) (*timeline, error) {
	gen, err := multicast.NewPoissonGenerator(nodes, multicast.OnlineGeneratorConfig(),
		multicast.PoissonConfig{ArrivalsPerHour: erlangs / holdingHours, MeanHoldingHours: holdingHours}, seed)
	if err != nil {
		return nil, err
	}
	t := &timeline{gen: gen, base: base, step: step}
	return t, t.draw()
}

func (t *timeline) draw() error {
	next, err := t.gen.Next()
	if err != nil {
		return err
	}
	r := *next.Request
	r.ID = t.base + t.step*t.drawn
	t.drawn++
	next.Request = &r
	t.next = next
	return nil
}

// now is the virtual time of the next arrival (hours).
func (t *timeline) now() float64 { return t.next.ArrivalHours }

// ops are the calls a timeline drives.
type ops struct {
	admit  func(*multicast.Request) (*core.Solution, error)
	depart func(id int) error
}

// advance performs the next event: a due departure, else the next
// arrival. An arrival admitted without error is held until its
// departure time. It returns the admission error, if any.
func (t *timeline) advance(o ops) error {
	if len(t.live) > 0 && t.live[0].at <= t.next.ArrivalHours {
		d := heap.Pop(&t.live).(departure)
		return o.depart(d.id)
	}
	req, at := t.next.Request, t.next.DepartureHours
	_, err := o.admit(req)
	if err == nil {
		heap.Push(&t.live, departure{id: req.ID, at: at})
	}
	if derr := t.draw(); derr != nil {
		return derr
	}
	if err != nil && !core.IsRejection(err) {
		return err
	}
	return nil
}

// drain departs every session still held.
func (t *timeline) drain(depart func(id int) error) error {
	for len(t.live) > 0 {
		if err := depart(heap.Pop(&t.live).(departure).id); err != nil {
			return err
		}
	}
	return nil
}

type departure struct {
	id int
	at float64
}

// departures is a min-heap on departure time.
type departures []departure

func (h departures) Len() int           { return len(h) }
func (h departures) Less(i, j int) bool { return h[i].at < h[j].at }
func (h departures) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *departures) Push(x any)        { *h = append(*h, x.(departure)) }
func (h *departures) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// concurrently runs f(0) .. f(n-1) on n goroutines and waits for all.
func concurrently(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}
