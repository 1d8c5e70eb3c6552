package dataflow

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Textual graph format, used by cmd/spigraph to load user-defined systems:
//
//	# comment
//	graph myapp
//	actor A 100            # name, exec cycles
//	actor B 250
//	edge ab A B 2 3        # name, src, snk, produce, consume
//	edge fb B A 1 1 delay=2 bytes=4
//	edge dyn A B 10 8 dynamic bytes=2
//
// Options: delay=N (initial tokens), bytes=N (raw token size), dynamic
// (both ports dynamic; rates are then upper bounds), dynsrc / dynsnk
// (one-sided dynamic ports).

// Parse reads a graph description.
func Parse(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	var g *Graph
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "graph":
			if g != nil {
				return nil, fmt.Errorf("dataflow: line %d: duplicate graph declaration", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("dataflow: line %d: usage: graph <name>", lineNo)
			}
			g = New(fields[1])
		case "actor":
			if g == nil {
				return nil, fmt.Errorf("dataflow: line %d: actor before graph declaration", lineNo)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("dataflow: line %d: usage: actor <name> <execCycles>", lineNo)
			}
			cycles, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil || cycles < 0 {
				return nil, fmt.Errorf("dataflow: line %d: bad exec cycles %q", lineNo, fields[2])
			}
			if _, dup := g.ActorByName(fields[1]); dup {
				return nil, fmt.Errorf("dataflow: line %d: duplicate actor %q", lineNo, fields[1])
			}
			g.AddActor(fields[1], cycles)
		case "edge":
			if g == nil {
				return nil, fmt.Errorf("dataflow: line %d: edge before graph declaration", lineNo)
			}
			if len(fields) < 6 {
				return nil, fmt.Errorf("dataflow: line %d: usage: edge <name> <src> <snk> <produce> <consume> [options]", lineNo)
			}
			src, ok := g.ActorByName(fields[2])
			if !ok {
				return nil, fmt.Errorf("dataflow: line %d: unknown actor %q", lineNo, fields[2])
			}
			snk, ok := g.ActorByName(fields[3])
			if !ok {
				return nil, fmt.Errorf("dataflow: line %d: unknown actor %q", lineNo, fields[3])
			}
			produce, err := strconv.Atoi(fields[4])
			if err != nil || produce <= 0 {
				return nil, fmt.Errorf("dataflow: line %d: bad produce rate %q", lineNo, fields[4])
			}
			consume, err := strconv.Atoi(fields[5])
			if err != nil || consume <= 0 {
				return nil, fmt.Errorf("dataflow: line %d: bad consume rate %q", lineNo, fields[5])
			}
			var spec EdgeSpec
			for _, opt := range fields[6:] {
				switch {
				case opt == "dynamic":
					spec.ProduceDynamic = true
					spec.ConsumeDynamic = true
				case opt == "dynsrc":
					spec.ProduceDynamic = true
				case opt == "dynsnk":
					spec.ConsumeDynamic = true
				case strings.HasPrefix(opt, "delay="):
					spec.Delay, err = strconv.Atoi(opt[len("delay="):])
					if err != nil || spec.Delay < 0 {
						return nil, fmt.Errorf("dataflow: line %d: bad option %q", lineNo, opt)
					}
				case strings.HasPrefix(opt, "bytes="):
					spec.TokenBytes, err = strconv.Atoi(opt[len("bytes="):])
					if err != nil || spec.TokenBytes <= 0 {
						return nil, fmt.Errorf("dataflow: line %d: bad option %q", lineNo, opt)
					}
				default:
					return nil, fmt.Errorf("dataflow: line %d: unknown option %q", lineNo, opt)
				}
			}
			g.AddEdge(fields[1], src, snk, produce, consume, spec)
		default:
			return nil, fmt.Errorf("dataflow: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("dataflow: no graph declaration found")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*Graph, error) {
	return Parse(strings.NewReader(s))
}
