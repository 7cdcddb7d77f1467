package adsb

import "strings"

// RoutingKey extracts the ICAO hex ident (CSV field 5) from one SBS line
// without full parsing, for per-entity routing in the parallel ingest
// front-end. ok is false for lines that are not recognisably SBS.
func RoutingKey(line string) (key string, ok bool) {
	id, ok := routeField(line)
	if !ok {
		return "", false
	}
	return strings.ToUpper(id), true
}

// AppendRoutingKey appends RoutingKey(line) to dst without materialising
// the upper-cased key string. Idents with non-ASCII bytes (never produced
// by real SBS feeds) fall back to appending the materialised key, keeping
// the two derivations byte-identical (TestAppendRoutingKeyMatches). dst is
// returned unchanged when ok is false.
func AppendRoutingKey(dst []byte, line string) (out []byte, ok bool) {
	id, ok := routeField(line)
	if !ok {
		return dst, false
	}
	start := len(dst)
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c >= 0x80 {
			key, _ := RoutingKey(line)
			return append(dst[:start], key...), true
		}
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst, true
}

// RouteHash returns fnv32a(RoutingKey(line)) without materialising the
// upper-cased key string, so ingest routes with zero allocations. Idents with non-ASCII bytes (never produced by real
// SBS feeds) fall back to hashing the materialised key, keeping the two
// derivations exactly in lockstep.
func RouteHash(line string) (h uint32, ok bool) {
	id, ok := routeField(line)
	if !ok {
		return 0, false
	}
	h = fnvOffset
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c >= 0x80 {
			key, _ := RoutingKey(line)
			return fnvString(fnvOffset, key), true
		}
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		h = (h ^ uint32(c)) * fnvPrime
	}
	return h, true
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

// FNV-1a, 32-bit — in lockstep with the key hash in internal/core
// (workerIndex).
const (
	fnvOffset uint32 = 2166136261
	fnvPrime  uint32 = 16777619
)

func fnvString(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime
	}
	return h
}
