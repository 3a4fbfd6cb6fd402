// Command lzwtcvet runs the repo-specific static-analysis suite over
// the module.
//
//	lzwtcvet [-checks c1,c2] [-list] [packages]
//
// With no package patterns it analyzes ./... relative to the current
// directory. It prints one `file:line:col: [check] message` line per
// finding and exits 1 when any survive //lzwtcvet:ignore suppressions,
// 2 on load or usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lzwtc/internal/analysis"
)

func main() {
	checksFlag := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := flag.Bool("list", false, "print the check catalog and exit")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: lzwtcvet [-checks c1,c2] [-list] [packages]")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, c := range analysis.Checks() {
			fmt.Printf("%-16s %s\n", c.Name(), c.Doc())
		}
		return
	}

	var names []string
	if *checksFlag != "" {
		names = strings.Split(*checksFlag, ",")
	}

	pkgs, err := analysis.Load(".", flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lzwtcvet: %v\n", err)
		os.Exit(2)
	}
	cfg := analysis.DefaultConfig()
	diags, err := analysis.Run(&cfg, pkgs, names...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lzwtcvet: %v\n", err)
		os.Exit(2)
	}

	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "lzwtcvet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}
