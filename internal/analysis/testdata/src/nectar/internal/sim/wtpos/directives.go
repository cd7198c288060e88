// Directive-hygiene edge cases: a typoed verb, a missing reason, or a
// directive in a place its verb does not allow is itself a diagnostic,
// so a broken escape hatch can never silently disable the check.
package wtpos

import "time"

/* want `requires a reason` */ //nectar:allow-walltime

/* want `unknown directive "//nectar:allow-waltime"` */ //nectar:allow-waltime measures stuff

/* want `unknown directive "//nectar:"` */ //nectar: allow-walltime leading space breaks the verb

// missingReason demonstrates that a reason-less directive also fails to
// suppress: the finding on the next line is still reported.
func missingReason() {
	/* want `requires a reason` */ //nectar:allow-walltime
	time.Sleep(time.Millisecond) // want `wall-clock time\.Sleep`
}

// misplaced carries every verb whose row restricts placement in a body
// comment, where none of them annotates anything.
func misplaced() {
	/* want `//nectar:hotpath must be part of a function declaration's doc comment` */ //nectar:hotpath
	_ = 0
	/* want `//nectar:hotpath-exempt must be part of a function declaration's doc comment` */ //nectar:hotpath-exempt stray waiver
	_ = 0
	/* want `//nectar:shard-owned must annotate a type declaration or a struct field` */ //nectar:shard-owned
	_ = 0
	/* want `//nectar:shard-boundary must be part of a function declaration's doc comment` */ //nectar:shard-boundary stray waiver
	_ = 0
	/* want `//nectar:free-hop must be part of a function declaration's doc comment` */ //nectar:free-hop fixture: not a doc comment
	_ = 0
	/* want `//nectar:takes-ownership must be part of a function declaration's doc comment` */ //nectar:takes-ownership pkt a body comment transfers nothing
	_ = 0
}

// placed shows each verb where its row allows it: silent.
//
//nectar:hotpath
//nectar:hotpath-exempt fixture: a doc comment is the right place
//nectar:shard-boundary fixture: a doc comment is the right place
//nectar:free-hop fixture: a doc comment is the right place
//nectar:takes-ownership s fixture: a doc comment naming a parameter
func placed(s []int) {
	_ = s
}

// owned is shard-owned as a type, and so is its field.
//
//nectar:shard-owned
type owned struct {
	n int //nectar:shard-owned
}
