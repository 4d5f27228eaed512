package main

import (
	"fmt"

	"shmcaffe/internal/nn"
	"shmcaffe/internal/tensor"
)

// modelSpec names one benchmark model: "mlp" is nn.MLP over flat features,
// "cnn" is nn.SmallCNN over Channels×Size×Size images.
type modelSpec struct {
	Kind     string
	Features int `json:",omitempty"`
	Hidden   int `json:",omitempty"`
	Channels int `json:",omitempty"`
	Size     int `json:",omitempty"`
	Classes  int
}

func (m modelSpec) String() string {
	if m.Kind == "cnn" {
		return fmt.Sprintf("SmallCNN(%dx%dx%d -> %d)", m.Channels, m.Size, m.Size, m.Classes)
	}
	return fmt.Sprintf("MLP(%d-%d-%d-%d)", m.Features, m.Hidden, m.Hidden, m.Classes)
}

// params is the model's flat weight count (Wg holds 4 bytes per param).
func (m modelSpec) params() int {
	if m.Kind == "cnn" {
		f := m.Size / 4
		return (m.Channels*8*9 + 8) + (8*16*9 + 16) + (16*f*f*64 + 64) + (64*m.Classes + m.Classes)
	}
	return (m.Features*m.Hidden + m.Hidden) + (m.Hidden*m.Hidden + m.Hidden) + (m.Hidden*m.Classes + m.Classes)
}

// layers rebuilds the zoo model's layer list (nn.MLP / nn.SmallCNN keep
// theirs private) so each layer can be wrapped. TestTracedModelsMatchZoo
// pins the copy to the zoo: same parameters, same forward output.
func (m modelSpec) layers(name string) []nn.Layer {
	if m.Kind == "cnn" {
		f := m.Size / 4
		return []nn.Layer{
			nn.NewConv2D(name+"/conv1", m.Channels, 8, 3, 1, 1),
			nn.NewReLU(name + "/relu1"),
			nn.NewMaxPool2D(name+"/pool1", 2, 2),
			nn.NewConv2D(name+"/conv2", 8, 16, 3, 1, 1),
			nn.NewReLU(name + "/relu2"),
			nn.NewMaxPool2D(name+"/pool2", 2, 2),
			nn.NewFlatten(name + "/flat"),
			nn.NewDense(name+"/fc1", 16*f*f, 64),
			nn.NewReLU(name + "/relu3"),
			nn.NewDense(name+"/fc2", 64, m.Classes),
		}
	}
	return []nn.Layer{
		nn.NewDense(name+"/fc1", m.Features, m.Hidden),
		nn.NewReLU(name + "/relu1"),
		nn.NewDense(name+"/fc2", m.Hidden, m.Hidden),
		nn.NewReLU(name + "/relu2"),
		nn.NewDense(name+"/fc3", m.Hidden, m.Classes),
	}
}

func (m modelSpec) inShape() []int {
	if m.Kind == "cnn" {
		return []int{m.Channels, m.Size, m.Size}
	}
	return []int{m.Features}
}

// layerNames lists the short layer names, in network order.
func (m modelSpec) layerNames() []string {
	var out []string
	for _, l := range m.layers("x") {
		out = append(out, l.Name()[2:])
	}
	return out
}

// buildNet builds the model with weights drawn from seed. Untraced it is the
// zoo constructor itself. Traced, every layer is wrapped; the weights are
// initialized through an unwrapped network over the same layer objects,
// because nn initializes only layers of its own types.
func buildNet(m modelSpec, name string, seed uint64, rec *recorder) (*nn.Network, error) {
	if rec == nil {
		var net *nn.Network
		var err error
		if m.Kind == "cnn" {
			net, err = nn.SmallCNN(name, m.Channels, m.Size, m.Classes, seed)
		} else {
			net, err = nn.MLP(name, m.Features, m.Hidden, m.Classes)
		}
		if err != nil {
			return nil, err
		}
		net.InitWeights(tensor.NewRNG(seed))
		return net, nil
	}
	layers := m.layers(name)
	plain, err := nn.NewNetwork(name, m.inShape(), layers...)
	if err != nil {
		return nil, err
	}
	plain.InitWeights(tensor.NewRNG(seed))
	return nn.NewNetwork(name, m.inShape(), wrapLayers(rec, m.Kind, layers)...)
}
