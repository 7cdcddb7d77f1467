package forecast

import "github.com/datacron-project/datacron/internal/model"

// Event forecasting after the pattern-automaton × Markov-chain
// construction (Alevizos et al.'s Wayeb, which datAcron adopted): movement
// reports are discretised into symbols, a first-order Markov chain is
// learned over the symbol stream, and the probability that a CER pattern
// completes within a horizon is computed by evolving the product of the
// chain with the pattern's progress automaton.

// SymbolFn discretises one report into a symbol in [0, n).
type SymbolFn func(p model.Position) int

// SpeedSymbols returns a SymbolFn bucketing speed over ground with the
// given thresholds (m/s), producing len(thresholds)+1 symbols.
func SpeedSymbols(thresholds ...float64) (SymbolFn, int) {
	n := len(thresholds) + 1
	return func(p model.Position) int {
		for i, th := range thresholds {
			if p.SpeedMS < th {
				return i
			}
		}
		return n - 1
	}, n
}

// MarkovChain is a first-order chain over n symbols with add-one smoothing.
type MarkovChain struct {
	n      int
	counts [][]float64
}

// NewMarkovChain returns an untrained chain over n symbols.
func NewMarkovChain(n int) *MarkovChain {
	c := make([][]float64, n)
	for i := range c {
		c[i] = make([]float64, n)
	}
	return &MarkovChain{n: n, counts: c}
}

// Prob returns P(next=b | cur=a) with add-one smoothing.
func (mc *MarkovChain) Prob(a, b int) float64 {
	if a < 0 || a >= mc.n || b < 0 || b >= mc.n {
		return 0
	}
	var total float64
	for _, c := range mc.counts[a] {
		total += c
	}
	return (mc.counts[a][b] + 1) / (total + float64(mc.n))
}

// PatternForecaster forecasts completion of a "K consecutive matching
// reports" pattern (the duration patterns of package cer at a fixed report
// cadence) from the current symbol and run length.
type PatternForecaster struct {
	// K is the number of consecutive matching reports required.
	K int
	// Match reports whether a symbol advances the pattern.
	Match func(sym int) bool
	// Chain is the learned symbol chain.
	Chain *MarkovChain
}

// CompletionProb returns P(pattern completes within `horizon` further
// reports | current symbol, current run length). It evolves the product
// automaton (symbol × run-length) for `horizon` steps; the run-length
// component advances on matching symbols and resets otherwise; K absorbs.
func (f *PatternForecaster) CompletionProb(curSym, runLen, horizon int) float64 {
	if f.K <= 0 || f.Chain == nil {
		return 0
	}
	if runLen >= f.K {
		return 1
	}
	n := f.Chain.n
	// state index: sym*K + run (run < K); plus one absorbing state at the end.
	dim := n*f.K + 1
	absorb := dim - 1
	cur := make([]float64, dim)
	if curSym < 0 || curSym >= n {
		return 0
	}
	if runLen < 0 {
		runLen = 0
	}
	cur[curSym*f.K+runLen] = 1
	next := make([]float64, dim)
	for step := 0; step < horizon; step++ {
		for i := range next {
			next[i] = 0
		}
		next[absorb] = cur[absorb]
		for sym := 0; sym < n; sym++ {
			for run := 0; run < f.K; run++ {
				pState := cur[sym*f.K+run]
				if pState == 0 {
					continue
				}
				for nextSym := 0; nextSym < n; nextSym++ {
					p := pState * f.Chain.Prob(sym, nextSym)
					if p == 0 {
						continue
					}
					if f.Match(nextSym) {
						if run+1 >= f.K {
							next[absorb] += p
						} else {
							next[nextSym*f.K+run+1] += p
						}
					} else {
						next[nextSym*f.K] += p
					}
				}
			}
		}
		cur, next = next, cur
	}
	return cur[absorb]
}
