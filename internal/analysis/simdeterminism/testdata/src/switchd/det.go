// Package det exercises the simdeterminism analyzer inside a
// deterministic-named package (the directory name "switchd" puts it in
// scope).
package det

import (
	"math/rand"
	"sort"
	"time"
)

var sink []int

func wallClock() {
	_ = time.Now()             // want `simdeterminism: time\.Now reads the host clock`
	time.Sleep(time.Second)    // want `simdeterminism: time\.Sleep reads the host clock`
	_ = time.Since(time.Time{}) // want `simdeterminism: time\.Since reads the host clock`
	_ = time.Duration(3)       // types and constants are fine
}

func globalRand() {
	_ = rand.Intn(7) // want `simdeterminism: rand\.Intn draws from the global source`
	rand.Shuffle(3, func(i, j int) {}) // want `simdeterminism: rand\.Shuffle draws from the global source`
}

func seededRand() {
	r := rand.New(rand.NewSource(42)) // constructing a seeded source is legal
	_ = r.Intn(7)                     // methods on *rand.Rand are legal
}

func emit(int) {}

func mapOrderEscapes(m map[int]int) {
	for k := range m { // want `simdeterminism: iteration over map m has nondeterministic order`
		emit(k)
	}
}

func mapAppendUnsorted(m map[int]int) {
	for k := range m { // want `simdeterminism: iteration over map m has nondeterministic order`
		sink = append(sink, k)
	}
}

func collectThenSort(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func deleteOnly(m map[int]int, floor int) {
	for k := range m {
		if k < floor {
			delete(m, k)
		}
	}
}

func accumulate(m map[int]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

func keyedCopy(m map[int]int) map[int]int {
	out := make(map[int]int, len(m))
	for k, v := range m {
		out[k] = v * 2
	}
	return out
}
