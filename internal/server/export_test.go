package server

import (
	_ "unsafe" // go:linkname

	"github.com/datacron-project/datacron/internal/rdf"
)

// dictMaxID is the rdf package's unexported last dictionary id, bound here
// so a test can fill the term dictionary without minting 2³² terms.
//
//go:linkname dictMaxID github.com/datacron-project/datacron/internal/rdf.maxID
var dictMaxID rdf.ID
