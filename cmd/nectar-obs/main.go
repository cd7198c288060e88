// Command nectar-obs is the simulator's observability CLI. Each
// subcommand is one view of a run:
//
//	nectar-obs trace [-proto datagram|rmp|rrp] [-size N] [-q]
//	nectar-obs stats [-format json|table]
//	nectar-obs prof -in BENCH_pdes.json [-topn N] [-json]
//	nectar-obs prof -check BENCH_pdes.json [-min 0.95]
//
// trace records one exchange's typed virtual-time events and prints the
// timeline, the span tree and the Figure 6 stage breakdown. stats runs a
// small fault-injected workload and prints the metrics snapshot. prof
// renders or validates the wall-clock profile that nectar-bench -prof
// pdes writes.
//
// Exit status: 0 on success, 1 when a run or a check fails, 2 on a usage
// error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// subcommands maps each subcommand name to its entry point. An entry
// parses its own flags from args, writes its report to stdout and flag
// help to stderr.
var subcommands = map[string]func(args []string, stdout, stderr io.Writer) error{
	"trace": runTrace,
	"stats": runStats,
	"prof":  runProf,
}

// errUsage marks a usage error (exit status 2); flag parse errors and
// invalid flag combinations wrap it.
var errUsage = errors.New("usage")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one subcommand and returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || subcommands[args[0]] == nil {
		fmt.Fprintln(stderr, "usage: nectar-obs trace|stats|prof [flags]  (nectar-obs <sub> -h for flags)")
		return 2
	}
	err := subcommands[args[0]](args[1:], stdout, stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintf(stderr, "nectar-obs %s: %v\n", args[0], err)
	if errors.Is(err, errUsage) {
		return 2
	}
	return 1
}

// parseFlags parses args into fs; fs prints its own diagnostics and usage
// to stderr, and a parse failure becomes a usage error.
func parseFlags(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%w: unexpected argument %q", errUsage, fs.Arg(0))
	}
	return nil
}
