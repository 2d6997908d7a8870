package search

import (
	"container/heap"
	"context"
	"math"
)

// reference is the sequential reference of Algorithms 2 and 6: the plain
// A* loop on the calling goroutine — no evaluation pool, no speculation —
// answering every goal test with the monolithic conflict.Analysis.CoverSize
// instead of the component evaluator. One reference therefore pins both
// the engine's worker counts and its decomposed cover queries: results,
// goal order and effort stats must match it exactly.
//
// It keeps its own copy of the streamed-result rules: an equal-cost goal
// replaces the previous one (Definition 4's tie-break), every result
// carries the effort at the time its goal was found, and the last one
// carries the whole run's.
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

	var results []*Result
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
			r := &Result{
				State:     n.state,
				Sigma:     n.state.Apply(sigma),
				Cost:      n.cost,
				CoverSize: coverSize,
				DeltaP:    coverSize * s.alpha,
				Stats:     stats,
			}
			if k := len(results); k > 0 && math.Abs(results[k-1].Cost-r.Cost) < 1e-9 {
				results[k-1] = r
			} else {
				results = append(results, r)
			}
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
	if k := len(results); k > 0 {
		results[k-1].Stats = stats
	}
	return results
}

// referenceFind is reference for a single τ: the first goal, or nil.
func referenceFind(s *Searcher, tau int) *Result {
	if res := reference(s, tau, tau); len(res) > 0 {
		return res[0]
	}
	return nil
}

// collect runs FindRangeStream and returns the emitted results in order.
func collect(ctx context.Context, s *Searcher, tauLow, tauHigh int) ([]*Result, error) {
	var out []*Result
	err := s.FindRangeStream(ctx, tauLow, tauHigh, func(r *Result) error {
		out = append(out, r)
		return nil
	})
	return out, err
}
