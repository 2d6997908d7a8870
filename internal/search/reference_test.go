package search

import (
	"container/heap"
	"math"
)

// reference is the sequential reference of Algorithms 2 and 6: the plain
// A* loop on the calling goroutine — no evaluation pool, no speculation —
// answering every goal test with the monolithic conflict.Analysis.CoverSize
// instead of the component evaluator. One reference therefore pins both
// the engine's worker counts and its decomposed cover queries: results,
// goal order and effort stats must match it exactly. Every result carries
// the whole run's stats, as FindRange's do.
func reference(s *Searcher, tauLow, tauHigh int) []*Result {
	stats := Stats{}
	tau := tauHigh
	sigma := s.An.Sigma
	width := s.An.In.Schema.Width()
	if tau < s.floor {
		return nil
	}
	gcOf := func(st State, cost float64, tau int) float64 {
		if s.Opt.BestFirst {
			return cost
		}
		stats.GCCalls++
		return s.h.gc(st, s.ds, tau)
	}

	var sink resultSink
	pq := &openList{}
	seq := 0
	root := Root(len(sigma))
	rootCost := s.costs.StateCost(root)
	heap.Push(pq, &node{state: root, cost: rootCost, gc: gcOf(root, rootCost, tau), seq: seq})
	var childBuf []State
	for pq.Len() > 0 && tau >= tauLow {
		n := heap.Pop(pq).(*node)
		stats.Visited++
		coverSize := s.An.CoverSize(n.state)
		if coverSize*s.alpha <= tau {
			sink.add(&Result{
				State:     n.state,
				Sigma:     n.state.Apply(sigma),
				Cost:      n.cost,
				CoverSize: coverSize,
				DeltaP:    coverSize * s.alpha,
			})
			tau = coverSize*s.alpha - 1
			if tau < tauLow || tau < s.floor {
				break
			}
			rebuilt := (*pq)[:0]
			for _, m := range *pq {
				m.gc = gcOf(m.state, m.cost, tau)
				if !math.IsInf(m.gc, 1) {
					m.index = len(rebuilt)
					rebuilt = append(rebuilt, m)
				}
			}
			*pq = rebuilt
			heap.Init(pq)
		}
		childBuf = n.state.Children(width, sigma, childBuf[:0])
		for _, c := range childBuf {
			stats.Generated++
			cost := s.costs.StateCost(c)
			gc := gcOf(c, cost, tau)
			if math.IsInf(gc, 1) {
				continue
			}
			seq++
			heap.Push(pq, &node{state: c, cost: cost, gc: gc, seq: seq})
		}
	}
	for _, r := range sink.results {
		r.Stats = stats
	}
	return sink.results
}

// referenceFind is reference for a single τ: the first goal, or nil.
func referenceFind(s *Searcher, tau int) *Result {
	if res := reference(s, tau, tau); len(res) > 0 {
		return res[0]
	}
	return nil
}
