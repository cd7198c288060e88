// Package hotproptest exercises hotpath's transitive audit: purity over
// the call graph, //nectar:hotpath-exempt pruning, and chain reporting.
package hotproptest

import "fmt"

// Root is the annotated fast path. Its own body's one finding is the
// interface conversion handing adder to viaIface; every other finding
// below is in a helper it (transitively) reaches.
//
//nectar:hotpath
func Root(n int) int {
	total := helper(n)            // direct call
	total += deep(n)              // two-hop chain
	total += colder(n)            // pruned at the exempt function
	total += annotated(n)         // audited as a root of its own, not via the chain
	total += viaValue(n)          // function value passed to a spawner
	total += viaIface(adder{}, n) // want `hotpath Root: argument converts hotproptest\.adder to hotproptest\.summer`
	return total
}

// helper is reached directly from the root and allocates.
func helper(n int) int {
	s := fmt.Sprintf("%d", n) // want `helper is reachable from //nectar:hotpath root hotproptest\.Root \(hotproptest\.Root -> hotproptest\.helper\) but fmt\.Sprintf allocates its variadic args`
	return len(s)
}

// deep is clean but calls deeper, giving a three-element chain.
func deep(n int) int { return deeper(n) }

func deeper(n int) int {
	var acc []int
	acc = append(acc, n) // want `deeper is reachable .* \(hotproptest\.Root -> hotproptest\.deep -> hotproptest\.deeper\) but append grows local "acc" declared without capacity`
	return len(acc)
}

// colder is a legitimate cold path: the exemption prunes it and
// everything reachable only through it.
//
//nectar:hotpath-exempt reconfiguration path runs once per topology change
func colder(n int) int { return coldest(n) }

// coldest allocates freely — reachable only through the exemption, so
// no diagnostic.
func coldest(n int) int {
	return len(fmt.Sprint(n))
}

// annotated carries its own //nectar:hotpath: its root audit owns
// its body, so the chain audit stays silent about it (no double report).
//
//nectar:hotpath
func annotated(n int) int { return n }

// spawn models an approved callback surface: hotpath follows the named
// function value into it.
func spawn(fn func(int) int, n int) int { return n }

func viaValue(n int) int { return spawn(callback, n) }

// callback runs under the hot caller even though its invocation is
// deferred.
func callback(n int) int {
	s := fmt.Sprint(n) // want `callback is reachable .* but fmt\.Sprint allocates`
	return len(s)
}

// viaIface dispatches through an interface; the method set resolves the
// call to every implementation in the package.
type summer interface{ sum(int) int }

type adder struct{}

func (adder) sum(n int) int {
	s := fmt.Sprintln(n) // want `\(hotproptest\.adder\)\.sum is reachable .* but fmt\.Sprintln allocates`
	return len(s)
}

func viaIface(s summer, n int) int { return s.sum(n) }

// twoOnOneLine is reached and boxes two concrete values into interface
// parameters on a single line: two diagnostics, two want literals.
//
//nectar:hotpath
func HotTwo(a, b int) { twoOnOneLine(a, b) }

func sink2(x, y any) {}

func twoOnOneLine(a, b int) {
	sink2(a, b) // want `argument converts int to any` `argument converts int to any`
}

// loop and pool are mutually recursive reached functions: the BFS must
// terminate and stay silent (both are clean).
//
//nectar:hotpath
func HotLoop(n int) int { return loop(n) }

func loop(n int) int {
	if n <= 0 {
		return 0
	}
	return pool(n - 1)
}

func pool(n int) int { return loop(n - 1) }

// Unreached allocates but is never called from a hot root: silent.
func Unreached(n int) string { return fmt.Sprintf("%d", n) }
