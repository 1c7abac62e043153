package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
)

// TestCommandLine: -h is not an error; an unknown figure is an error
// that names it; a positional argument, which the command would
// otherwise drop (running -fig's figures instead), is refused as a usage
// error before any figure runs.
func TestCommandLine(t *testing.T) {
	if err := run(context.Background(), []string{"-h"}, io.Discard, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -h = %v, want flag.ErrHelp", err)
	}
	var stdout bytes.Buffer
	err := run(context.Background(), []string{"-fig", "nosuch"}, &stdout, io.Discard)
	if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), `"nosuch"`) {
		t.Errorf("run -fig nosuch = %v, want an error naming the figure", err)
	}
	var stderr bytes.Buffer
	stdout.Reset()
	err = run(context.Background(), []string{"-fig", "nosuch", "fig4"}, &stdout, &stderr)
	if !errors.Is(err, errUsage) || stdout.Len() != 0 || !strings.Contains(stderr.String(), `unexpected arguments ["fig4"]`) ||
		!strings.Contains(stderr.String(), "Usage of crowdml-bench") {
		t.Errorf("run -fig nosuch fig4 = %v, stdout %d bytes, stderr %q; want the usage error, explained", err, stdout.Len(), stderr.String())
	}
}
