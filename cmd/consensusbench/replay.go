package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/oblivious-consensus/conciliator/internal/attack/search"
	"github.com/oblivious-consensus/conciliator/internal/des"
	"github.com/oblivious-consensus/conciliator/internal/fault"
)

// runReplay is the replay subcommand: it reads the artifact's own
// "schema" field and hands the file to the matching replayer. Every
// artifact records its full configuration, so only -parallel (wall-clock
// time of an attack replay) is a flag.
func runReplay(args []string, out io.Writer) error {
	fs, sh := newFlagSet("replay", parallelFlag)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("replay: want exactly one artifact path, got %q", fs.Args())
	}
	path := fs.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("replay: %s: %w", path, err)
	}
	switch head.Schema {
	case search.SchemaRecord:
		return runAttackReplay(out, path, sh.parallel)
	case fault.SchemaRepro:
		return runFaultReplay(out, path)
	case des.SchemaFaultRepro:
		return runDESFaultReplay(out, path)
	default:
		return fmt.Errorf("replay: %s has schema %q, want %s, %s, or %s",
			path, head.Schema, search.SchemaRecord, fault.SchemaRepro, des.SchemaFaultRepro)
	}
}
