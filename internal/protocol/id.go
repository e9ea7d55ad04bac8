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

// Child derives the parsed form of a nested instance identifier from its
// already-parsed parent, without re-splitting the parent's string.
func (p ParsedID) Child(base string) ParsedID {
	return ParsedID{
		Raw:    p.Raw + "/" + base,
		Tag:    p.Tag,
		Parent: p.Raw,
		Base:   base,
		Depth:  p.Depth + 1,
	}
}
