package adsb

import "strings"

// RoutingKey extracts the ICAO hex ident (CSV field 5) from one SBS line
// without full parsing, for per-entity routing in the parallel ingest
// front-end. ok is false for lines that are not recognisably SBS.
func RoutingKey(line string) (key string, ok bool) {
	b, ok := AppendRoutingKey(nil, line)
	return string(b), ok
}

// AppendRoutingKey appends the routing key of line — the upper-cased ident
// — to dst. It is the one extractor; RoutingKey is its string form. It does
// not allocate when dst has room, except for idents with non-ASCII bytes
// (never produced by real SBS feeds), which take strings.ToUpper's Unicode
// casing. dst is returned unchanged when ok is false.
func AppendRoutingKey(dst []byte, line string) (out []byte, ok bool) {
	id, ok := routeField(line)
	if !ok {
		return dst, false
	}
	start := len(dst)
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c >= 0x80 {
			return append(dst[:start], strings.ToUpper(id)...), true
		}
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst, true
}

// routeField returns the trimmed raw ident field.
func routeField(line string) (string, bool) {
	rest := line
	for i := 0; i < 4; i++ {
		c := strings.IndexByte(rest, ',')
		if c < 0 {
			return "", false
		}
		rest = rest[c+1:]
	}
	c := strings.IndexByte(rest, ',')
	if c < 0 {
		return "", false
	}
	id := strings.TrimSpace(rest[:c])
	if id == "" {
		return "", false
	}
	return id, true
}
