package server

import (
	"fmt"

	"gaea/internal/object"
	"gaea/internal/query"
	"gaea/internal/wire"
)

// Page fills one stream page for a Backend's StreamPage under the byte
// budget every page shares: half the frame limit. An object that cannot
// fit a frame at all is an error; one that would push a non-empty page
// past the budget is refused, leaving it to lead the next page.
type Page struct {
	Raws   []wire.RawObject
	Budget int // bytes one page may carry: half the frame limit

	max, total int
}

// NewPage starts a page of at most limit objects under frame limit
// maxBytes.
func NewPage(limit, maxBytes int) *Page {
	return &Page{Raws: make([]wire.RawObject, 0, max(limit, 0)), Budget: maxBytes / 2, max: maxBytes}
}

// Take adds raw (the record of oid) to the page, or reports false when
// the page is full by bytes.
func (p *Page) Take(oid object.OID, raw wire.RawObject) (bool, error) {
	size := raw.Size()
	if size > p.max {
		return false, fmt.Errorf("%w: object %d (%d bytes) exceeds the frame limit %d",
			query.ErrBadRequest, oid, size, p.max)
	}
	if len(p.Raws) > 0 && p.total+size > p.Budget {
		return false, nil
	}
	p.Raws = append(p.Raws, raw)
	p.total += size
	return true, nil
}
