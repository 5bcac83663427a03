// Package snap exercises the statecomplete analyzer: direct and
// transitive field references, interface-call expansion, ephemeral
// justifications, dead image fields and suppression.
package snap

// part is a strategy seam: capture/restore dispatch through it, so the
// analyzer must expand the interface call to the implementation.
type part interface {
	capturePart(t *thing, img *thingImage)
	restorePart(t *thing, img *thingImage)
}

type leftPart struct{}

func (leftPart) capturePart(t *thing, img *thingImage) { img.Extra = t.extra }
func (leftPart) restorePart(t *thing, img *thingImage) { t.extra = img.Extra }

// thing is the live state imaged by thingImage.
//
//skueue:snapshot-state thingImage
type thing struct {
	a     int
	b     []byte
	extra int // only the part implementation touches it
	p     part
	gone  int // want `thing\.gone survives a restart but is not referenced by its snapshot functions \(capture: snap\.capture; restore: snap\.restore\)`
	//skueue:ephemeral -- fixture: scratch table rebuilt on boot
	scratch map[int]int
	//skueue:ephemeral
	badEph int // want `//skueue:ephemeral on badEph needs a reason`
}

type thingImage struct {
	A            int
	B            []byte
	Extra        int
	Orphan       int // want `image field thingImage\.Orphan is dead`
	OnlyCaptured int // want `image field thingImage\.OnlyCaptured is captured but never restored`
	OnlyRestored int // want `image field thingImage\.OnlyRestored is restored but never captured`
}

//skueue:snapshot-capture thing
func capture(t *thing) *thingImage {
	img := &thingImage{A: t.a}
	img.B = grabB(t)
	t.p.capturePart(t, img)
	img.OnlyCaptured = 1
	return img
}

//skueue:snapshot-restore thing
func restore(img *thingImage) *thing {
	t := &thing{a: img.A, p: leftPart{}}
	setB(t, img)
	t.p.restorePart(t, img)
	_ = img.OnlyRestored
	return t
}

// grabB proves transitive coverage: capture never names t.b itself.
func grabB(t *thing) []byte { return append([]byte(nil), t.b...) }

func setB(t *thing, img *thingImage) { t.b = img.B }

// orphanState declares persistence but wires no snapshot functions.
//
//skueue:snapshot-state orphanImage
type orphanState struct { // want `orphanState has no //skueue:snapshot-capture function` `orphanState has no //skueue:snapshot-restore function`
	v int
}

type orphanImage struct{ V int }

// badState names an image that does not exist.
//
//skueue:snapshot-state noSuchImage
type badState struct { // want `names image "noSuchImage", which does not resolve`
	z int
}

// badCapture names a state that is not declared //skueue:snapshot-state.
//
//skueue:snapshot-capture orphanImage
func badCapture() { // want `names "orphanImage", which does not name a //skueue:snapshot-state struct`
}
