include Jsonv
