package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Picker returns the key index of the tuple arriving at stream time now.
type Picker func(now time.Duration) int

// ZipfChurn is a truncated Zipf(s) popularity law over a key vocabulary
// whose identity and size both vary with time:
//
//   - Popularity rank r (0 = hottest) is drawn from P(r) ∝ 1/(r+1)^Skew over
//     the current cardinality K(t) (Skew 0 = uniform).
//   - A rank permutation maps popularity rank → key identity. Rotation
//     shifts the permutation's hottest RotateWindow entries by RotateStep
//     every RotatePeriod (hot-set churn in discrete jumps: RotateStep ==
//     RotateWindow/2 is a square-wave "antagonist flip" of two hot
//     populations). Drift applies DriftRate random hot↔random swaps per
//     second (gradual popularity churn).
//   - K(t) = min(MaxDistinct, Distinct + GrowthPerSec·t) models vocabulary
//     growth: fresh key identities enter the tail over the stream's life.
//
// Everything is driven by the picker's RNG, so a seed reproduces the exact
// rank sequence.
type ZipfChurn struct {
	Distinct     int           // cardinality at t = 0
	MaxDistinct  int           // cardinality cap under growth (0: Distinct)
	GrowthPerSec float64       // keys entering per second of stream time
	Skew         float64       // Zipf exponent (0 = uniform)
	RotatePeriod time.Duration // hot-set rotation period (0: no rotation)
	RotateWindow int           // ranks participating in rotation
	RotateStep   int           // rotation shift per period
	DriftRate    float64       // random permutation swaps per second
}

// MaxKeys is the largest key index the model can emit plus one (sizes
// vocabulary caches).
func (z ZipfChurn) MaxKeys() int {
	if z.MaxDistinct > z.Distinct {
		return z.MaxDistinct
	}
	return z.Distinct
}

func (z ZipfChurn) cardinality(t time.Duration) int {
	k := z.Distinct
	if z.GrowthPerSec > 0 {
		k += int(z.GrowthPerSec * t.Seconds())
	}
	if max := z.MaxKeys(); k > max {
		k = max
	}
	if k < 1 {
		k = 1
	}
	return k
}

// Picker instantiates a deterministic rank picker bound to one seeded RNG.
func (z ZipfChurn) Picker(rng *rand.Rand) Picker {
	max := z.MaxKeys()
	if max <= 0 {
		panic("scenario: ZipfChurn needs a positive Distinct")
	}
	// cum[r] = Σ_{i≤r} 1/(i+1)^Skew: truncated-Zipf inverse-CDF sampling
	// that stays exact while the cardinality bound K(t) moves.
	var cum []float64
	if z.Skew > 0 {
		cum = make([]float64, max)
		acc := 0.0
		for r := 0; r < max; r++ {
			acc += 1 / math.Pow(float64(r+1), z.Skew)
			cum[r] = acc
		}
	}
	perm := make([]int32, max)
	for i := range perm {
		perm[i] = int32(i)
	}
	rotWindow := z.RotateWindow
	if rotWindow > max {
		rotWindow = max
	}
	var nextRotate time.Duration = z.RotatePeriod
	var nextDrift time.Duration
	if z.DriftRate > 0 {
		nextDrift = expDur(rng, z.DriftRate)
	}
	scratch := make([]int32, rotWindow)
	return func(now time.Duration) int {
		// Apply churn events due by now, in order, so the permutation's
		// evolution depends only on (seed, arrival sequence).
		for {
			rotDue := z.RotatePeriod > 0 && rotWindow > 1 && now >= nextRotate
			driftDue := z.DriftRate > 0 && now >= nextDrift
			switch {
			case rotDue && (!driftDue || nextRotate <= nextDrift):
				step := z.RotateStep % rotWindow
				if step != 0 {
					copy(scratch, perm[:rotWindow])
					for i := 0; i < rotWindow; i++ {
						perm[i] = scratch[(i+step)%rotWindow]
					}
				}
				nextRotate += z.RotatePeriod
			case driftDue:
				// Swap a hot rank with a uniformly random one: hot keys
				// decay into the tail, tail keys surface.
				hotSpan := rotWindow
				if hotSpan < 2 {
					hotSpan = max / 8
					if hotSpan < 2 {
						hotSpan = 2
					}
				}
				a, b := rng.Intn(hotSpan), rng.Intn(max)
				perm[a], perm[b] = perm[b], perm[a]
				nextDrift += expDur(rng, z.DriftRate)
			default:
				k := z.cardinality(now)
				var rank int
				if cum == nil {
					rank = rng.Intn(k)
				} else {
					u := rng.Float64() * cum[k-1]
					rank = sort.SearchFloat64s(cum[:k], u)
				}
				return int(perm[rank])
			}
		}
	}
}

func (z ZipfChurn) String() string {
	var parts []string
	parts = append(parts, fmt.Sprintf("zipf(s=%.2f,k=%d)", z.Skew, z.Distinct))
	if z.MaxDistinct > z.Distinct && z.GrowthPerSec > 0 {
		parts = append(parts, fmt.Sprintf("grow(%.3g/s→%d)", z.GrowthPerSec, z.MaxDistinct))
	}
	if z.RotatePeriod > 0 && z.RotateWindow > 1 {
		parts = append(parts, fmt.Sprintf("rotate(%d/%d@%v)", z.RotateStep, z.RotateWindow, z.RotatePeriod))
	}
	if z.DriftRate > 0 {
		parts = append(parts, fmt.Sprintf("drift(%.3g/s)", z.DriftRate))
	}
	return strings.Join(parts, "+")
}
