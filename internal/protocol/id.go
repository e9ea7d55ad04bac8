package protocol

import "strings"

// ParsedID is the parsed form of a hierarchical action-instance identifier
// ("tag!outer#1/inner#2"). Identifiers are parsed once per frame/instance
// and the parsed form is cached (core caches it on the action frame), so
// routing and diagnostics never re-split the string per message.
type ParsedID struct {
	// Raw is the identifier as it travels on the wire.
	Raw string
	// Tag is the mux instance tag.
	Tag string
	// Parent is the enclosing action's full identifier including the tag
	// ("" for a top-level action).
	Parent string
	// Base is the leaf segment ("inner#2").
	Base string
	// Depth is the nesting depth: 0 for a top-level action, 1 for its
	// direct children, and so on.
	Depth int
}

// ParseID parses an action-instance identifier. The zero identifier parses
// to the zero ParsedID.
func ParseID(raw string) ParsedID {
	p := ParsedID{Raw: raw}
	rest := raw
	if i := strings.IndexByte(rest, '!'); i >= 0 {
		p.Tag = rest[:i]
		rest = rest[i+1:]
	}
	if i := strings.LastIndexByte(rest, '/'); i >= 0 {
		p.Depth = strings.Count(rest, "/")
		p.Base = rest[i+1:]
		// Parent keeps the tag prefix so it is itself a full identifier.
		p.Parent = raw[:len(raw)-len(rest)+i]
	} else {
		p.Base = rest
	}
	return p
}

// Child returns the parsed form of raw, the identifier of an instance
// nested directly in p ("<p.Raw>/<leaf>"), by slicing raw and extending p:
// neither string is re-split. It panics when raw does not extend p by one
// level — identifiers are derived programmatically, so that is a wiring bug.
func (p ParsedID) Child(raw string) ParsedID {
	n := len(p.Raw)
	if len(raw) <= n+1 || raw[:n] != p.Raw || raw[n] != '/' || strings.IndexByte(raw[n+1:], '/') >= 0 {
		panic("protocol: " + raw + " is not a child of " + p.Raw)
	}
	return ParsedID{
		Raw:    raw,
		Tag:    p.Tag,
		Parent: raw[:n],
		Base:   raw[n+1:],
		Depth:  p.Depth + 1,
	}
}
